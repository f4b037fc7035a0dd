package core

// oracleRank is internal/oracle.Rank. The oracle imports core for the
// Embedded it reads, so in-package tests cannot import it; oracle_test.go
// (package core_test) installs it here before any test runs.
var oracleRank func(emb *Embedded, q []float32, k int, h float32) []Match

// SetOracleRank installs the reference ranking for in-package tests.
func SetOracleRank(f func(emb *Embedded, q []float32, k int, h float32) []Match) { oracleRank = f }
