package table

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func sampleRelation() *Relation {
	return &Relation{
		ID:      "who-1",
		Source:  "WHO",
		Caption: "COVID19 Vaccine Dataset",
		Columns: []string{"Region", "Date", "Vaccine", "Dosage"},
		Rows: [][]string{
			{"North America", "2021-01-01", "Comirnaty", "First"},
			{"Europe", "2021-02-01", "Vaxzevria", "Second"},
		},
	}
}

func TestValidate(t *testing.T) {
	r := sampleRelation()
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	r.Rows = append(r.Rows, []string{"short"})
	if err := r.Validate(); err == nil {
		t.Fatal("ragged row must fail validation")
	}
	empty := &Relation{}
	if err := empty.Validate(); err == nil {
		t.Fatal("empty ID must fail")
	}
}

func TestTupleAndSchema(t *testing.T) {
	r := sampleRelation()
	tp := r.Tuple(0)
	if len(tp) != 4 || tp[2].Name != "Vaccine" || tp[2].Value != "Comirnaty" {
		t.Fatalf("Tuple=%v", tp)
	}
	if !reflect.DeepEqual(tp.Schema(), r.Columns) {
		t.Fatalf("Schema=%v", tp.Schema())
	}
}

func TestValuesAndAttributes(t *testing.T) {
	r := sampleRelation()
	vals := r.Values()
	if len(vals) != 8 || vals[0] != "North America" || vals[7] != "Second" {
		t.Fatalf("Values=%v", vals)
	}
	attrs := r.Attributes()
	if len(attrs) != 8 || attrs[6].Name != "Vaccine" || attrs[6].Value != "Vaxzevria" {
		t.Fatalf("Attributes=%v", attrs)
	}
}

func TestText(t *testing.T) {
	r := sampleRelation()
	txt := r.Text()
	for _, want := range []string{"COVID19 Vaccine Dataset", "Region", "Comirnaty"} {
		if !strings.Contains(txt, want) {
			t.Fatalf("Text misses %q: %s", want, txt)
		}
	}
}

func TestNumericFraction(t *testing.T) {
	r := &Relation{
		ID:      "n",
		Columns: []string{"a", "b"},
		Rows:    [][]string{{"123", "hello"}, {"456", "78 apples"}},
	}
	if got := r.NumericFraction(); got != 0.5 {
		t.Fatalf("NumericFraction=%v want 0.5", got)
	}
	empty := &Relation{ID: "e", Columns: []string{"a"}}
	if got := empty.NumericFraction(); got != 0 {
		t.Fatalf("empty NumericFraction=%v", got)
	}
}

func TestFederation(t *testing.T) {
	f := NewFederation()
	if err := f.Add(sampleRelation()); err != nil {
		t.Fatal(err)
	}
	if err := f.Add(sampleRelation()); err == nil {
		t.Fatal("duplicate ID must fail")
	}
	r2 := sampleRelation()
	r2.ID = "cdc-1"
	r2.Source = "CDC"
	f.Add(r2)
	if f.Len() != 2 {
		t.Fatalf("Len=%d", f.Len())
	}
	if _, ok := f.ByID("who-1"); !ok {
		t.Fatal("ByID failed")
	}
	if got := f.Sources(); !reflect.DeepEqual(got, []string{"CDC", "WHO"}) {
		t.Fatalf("Sources=%v", got)
	}
}

func TestSubset(t *testing.T) {
	f := NewFederation()
	for i := 0; i < 10; i++ {
		r := sampleRelation()
		r.ID = string(rune('a' + i))
		f.Add(r)
	}
	half := f.Subset(0.5)
	if half.Len() != 5 {
		t.Fatalf("50%% subset has %d", half.Len())
	}
	tenth := f.Subset(0.1)
	if tenth.Len() != 1 {
		t.Fatalf("10%% subset has %d", tenth.Len())
	}
	full := f.Subset(1.0)
	if full.Len() != 10 {
		t.Fatalf("100%% subset has %d", full.Len())
	}
	if _, ok := tenth.ByID("a"); !ok {
		t.Fatal("subset lost ByID index")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	r := sampleRelation()
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf, "who-1", "WHO")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Columns, r.Columns) {
		t.Fatalf("columns %v", got.Columns)
	}
	if !reflect.DeepEqual(got.Rows, r.Rows) {
		t.Fatalf("rows %v", got.Rows)
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader(""), "x", "s"); err == nil {
		t.Fatal("empty CSV must fail")
	}
}

func TestReadCSVShortRowsPadded(t *testing.T) {
	got, err := ReadCSV(strings.NewReader("a,b,c\n1,2\n"), "x", "s")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows[0]) != 3 || got.Rows[0][2] != "" {
		t.Fatalf("short row not padded: %v", got.Rows[0])
	}
}

func TestLoadDir(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("one.csv", "a,b\n1,2\n")
	write("two.csv", "x\nfoo\nbar\n")
	write("ignored.txt", "junk")
	fed, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if fed.Len() != 2 {
		t.Fatalf("Len=%d", fed.Len())
	}
	r, ok := fed.ByID("two")
	if !ok || r.NumRows() != 2 || r.Source != filepath.Base(dir) {
		t.Fatalf("two.csv: %+v", r)
	}
}
