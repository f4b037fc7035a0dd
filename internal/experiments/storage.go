package experiments

import (
	"fmt"
	"strings"
	"time"

	"semdisco/internal/core"
)

// StorageRow summarizes one method's index footprint on one partition.
type StorageRow struct {
	Method string
	Size   string
	// BuildTime is wall-clock index construction (embedding excluded —
	// it is shared by all methods).
	BuildTime time.Duration
	// VectorBytes is the method's vector storage: raw float32 for
	// ExS/CTS, PQ codes for the default ANNS.
	VectorBytes int64
}

// RunStorageTable reports index build time and vector storage per method
// and partition, supporting the paper's storage-reduction claims (§1:
// Product Quantization "significantly reduce[s] the storage requirements";
// §7: CTS "reduced storage requirements by applying dimensionality
// reduction"). It reads the indexes the bench already built; a method
// skipped at build time gets no row. Baselines are excluded: they store
// token statistics, not vectors.
func (b *Bench) RunStorageTable() (string, error) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Storage & build cost, semantic methods (corpus %s)\n", b.Setup.Profile.Name)
	fmt.Fprintf(&sb, "%-8s %-6s %12s %14s %10s\n", "Dataset", "Method", "values", "vector bytes", "build")
	for _, size := range []string{"LD", "MD", "SD"} {
		sized := b.PerSize[size]
		emb := sized.Emb
		rawBytes := int64(emb.NumValues()) * int64(emb.Enc.Dim()) * 4

		// ExS: the raw embedding matrix, no index.
		fmt.Fprintf(&sb, "%-8s %-6s %12d %14d %10s\n", size, "ExS",
			emb.NumValues(), rawBytes, "-")
		if anns, ok := sized.Searchers["ANNS"].(*core.ANNS); ok {
			fmt.Fprintf(&sb, "%-8s %-6s %12d %14d %10s\n", "", "ANNS",
				emb.NumValues(), anns.Stats().VectorBytes, sized.BuildTime["ANNS"].Round(time.Millisecond))
		}
		if _, ok := sized.Searchers["CTS"]; ok {
			fmt.Fprintf(&sb, "%-8s %-6s %12d %14d %10s\n", "", "CTS",
				emb.NumValues(), rawBytes, sized.BuildTime["CTS"].Round(time.Millisecond))
		}
	}
	sb.WriteString("\nANNS stores PQ codes (the compression the paper adopts);\n")
	sb.WriteString("ExS and CTS store raw float32 vectors.\n")
	return sb.String(), nil
}
