// Package table defines the relational data model of the paper's problem
// statement — attributes, tuples, relations, datasets, federations — plus
// CSV import/export so real tables can be ingested.
//
// Following the paper (§3), a dataset holds a single relation and the two
// terms are used interchangeably; Federation therefore aggregates
// relations, each tagged with the source (platform) it came from.
package table

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"semdisco/internal/text"
)

// Attribute is a named value: one cell of a relation under its column name.
type Attribute struct {
	Name  string
	Value string
}

// Tuple is one row of a relation as a sequence of attributes.
type Tuple []Attribute

// Schema returns the attribute names of the tuple in order.
func (t Tuple) Schema() []string {
	out := make([]string, len(t))
	for i, a := range t {
		out[i] = a.Name
	}
	return out
}

// Relation is a table: a header, rows, and the contextual fields WikiTables
// provides (page title, section title, caption), which the multi-field
// baselines score separately.
type Relation struct {
	// ID uniquely identifies the relation within a federation.
	ID string
	// Source names the platform the relation came from (e.g. "WHO").
	Source string
	// PageTitle, SectionTitle and Caption carry the table's surrounding
	// context; any may be empty.
	PageTitle    string
	SectionTitle string
	Caption      string
	// Columns is the header; every row has len(Columns) cells.
	Columns []string
	// Rows holds the cell values.
	Rows [][]string
}

// Validate checks structural invariants: non-empty ID, consistent row
// widths.
func (r *Relation) Validate() error {
	if r.ID == "" {
		return fmt.Errorf("table: relation with empty ID")
	}
	for i, row := range r.Rows {
		if len(row) != len(r.Columns) {
			return fmt.Errorf("table: relation %s row %d has %d cells, header has %d",
				r.ID, i, len(row), len(r.Columns))
		}
	}
	return nil
}

// NumRows returns the number of tuples.
func (r *Relation) NumRows() int { return len(r.Rows) }

// NumCols returns the number of columns.
func (r *Relation) NumCols() int { return len(r.Columns) }

// Tuple materializes row i as a Tuple.
func (r *Relation) Tuple(i int) Tuple {
	t := make(Tuple, len(r.Columns))
	for c, name := range r.Columns {
		t[c] = Attribute{Name: name, Value: r.Rows[i][c]}
	}
	return t
}

// Values returns every cell value in row-major order. This is the unit the
// paper embeds: "our methods embed tabular datasets at the cell level".
func (r *Relation) Values() []string {
	out := make([]string, 0, len(r.Rows)*len(r.Columns))
	for _, row := range r.Rows {
		out = append(out, row...)
	}
	return out
}

// Attributes returns every (column, value) pair in row-major order.
func (r *Relation) Attributes() []Attribute {
	out := make([]Attribute, 0, len(r.Rows)*len(r.Columns))
	for _, row := range r.Rows {
		for c, v := range row {
			out = append(out, Attribute{Name: r.Columns[c], Value: v})
		}
	}
	return out
}

// Text concatenates context, header and body into one string — the
// "consolidated single column per table" representation the paper uses for
// the WikiTables corpus.
func (r *Relation) Text() string {
	var b strings.Builder
	for _, s := range []string{r.PageTitle, r.SectionTitle, r.Caption} {
		if s != "" {
			b.WriteString(s)
			b.WriteByte(' ')
		}
	}
	for _, c := range r.Columns {
		b.WriteString(c)
		b.WriteByte(' ')
	}
	for _, row := range r.Rows {
		for _, v := range row {
			b.WriteString(v)
			b.WriteByte(' ')
		}
	}
	return strings.TrimSpace(b.String())
}

// NumericFraction reports the fraction of cells that tokenize to numbers
// only, the corpus statistic the paper reports (26.9% WikiTables, 55.3%
// EDP).
func (r *Relation) NumericFraction() float64 {
	total, numeric := 0, 0
	for _, row := range r.Rows {
		for _, v := range row {
			total++
			toks := text.Tokenize(v)
			if len(toks) == 0 {
				continue
			}
			allNum := true
			for _, t := range toks {
				if !text.IsNumeric(t) {
					allNum = false
					break
				}
			}
			if allNum {
				numeric++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(numeric) / float64(total)
}

// Federation is a collection of relations from multiple sources.
type Federation struct {
	relations []*Relation
	byID      map[string]*Relation
}

// NewFederation returns an empty federation.
func NewFederation() *Federation {
	return &Federation{byID: make(map[string]*Relation)}
}

// Add validates and registers a relation. IDs must be unique.
func (f *Federation) Add(r *Relation) error {
	if err := r.Validate(); err != nil {
		return err
	}
	if _, dup := f.byID[r.ID]; dup {
		return fmt.Errorf("table: duplicate relation id %q", r.ID)
	}
	f.relations = append(f.relations, r)
	f.byID[r.ID] = r
	return nil
}

// Len returns the number of relations.
func (f *Federation) Len() int { return len(f.relations) }

// Relations returns the relations in insertion order. The slice is shared;
// treat it as read-only.
func (f *Federation) Relations() []*Relation { return f.relations }

// ByID returns the relation with the given id.
func (f *Federation) ByID(id string) (*Relation, bool) {
	r, ok := f.byID[id]
	return r, ok
}

// Sources returns the distinct source names, sorted.
func (f *Federation) Sources() []string {
	set := map[string]struct{}{}
	for _, r := range f.relations {
		set[r.Source] = struct{}{}
	}
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Subset returns a new federation containing the first ceil(fraction·n)
// relations — the paper's SD/MD/LD partitions (10%, 50%, 100%).
func (f *Federation) Subset(fraction float64) *Federation {
	if fraction >= 1 {
		return f
	}
	n := int(float64(len(f.relations))*fraction + 0.5)
	if n < 1 && len(f.relations) > 0 {
		n = 1
	}
	sub := NewFederation()
	for _, r := range f.relations[:n] {
		// Adding the same *Relation is safe: federations never mutate them.
		sub.relations = append(sub.relations, r)
		sub.byID[r.ID] = r
	}
	return sub
}

// ReadCSV parses one relation from CSV. The first record is the header.
func ReadCSV(r io.Reader, id, source string) (*Relation, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("table: csv: %w", err)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("table: csv %s: empty", id)
	}
	rel := &Relation{ID: id, Source: source, Columns: records[0]}
	for _, rec := range records[1:] {
		row := make([]string, len(rel.Columns))
		copy(row, rec)
		rel.Rows = append(rel.Rows, row)
	}
	return rel, rel.Validate()
}

// WriteCSV writes the relation as CSV (header + rows). Fields are written
// by hand rather than through csv.Writer for one reason: a single-column
// row holding an empty string must be emitted as `""`, because the blank
// line csv.Writer would produce is skipped by every CSV reader and the row
// would vanish on round-trip.
func (r *Relation) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	writeRecord := func(fields []string) error {
		for i, f := range fields {
			if i > 0 {
				if err := bw.WriteByte(','); err != nil {
					return err
				}
			}
			needQuote := strings.ContainsAny(f, ",\"\r\n") ||
				(len(fields) == 1 && f == "")
			if !needQuote {
				if _, err := bw.WriteString(f); err != nil {
					return err
				}
				continue
			}
			if err := bw.WriteByte('"'); err != nil {
				return err
			}
			if _, err := bw.WriteString(strings.ReplaceAll(f, `"`, `""`)); err != nil {
				return err
			}
			if err := bw.WriteByte('"'); err != nil {
				return err
			}
		}
		return bw.WriteByte('\n')
	}
	if err := writeRecord(r.Columns); err != nil {
		return err
	}
	for _, row := range r.Rows {
		if err := writeRecord(row); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// LoadDir loads every *.csv in dir as one relation each, using the file
// base name (sans extension) as the relation ID and dir's base name as the
// source.
func LoadDir(dir string) (*Federation, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	fed := NewFederation()
	source := filepath.Base(dir)
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".csv") {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		id := strings.TrimSuffix(e.Name(), ".csv")
		rel, err := ReadCSV(f, id, source)
		f.Close()
		if err != nil {
			return nil, err
		}
		if err := fed.Add(rel); err != nil {
			return nil, err
		}
	}
	return fed, nil
}
