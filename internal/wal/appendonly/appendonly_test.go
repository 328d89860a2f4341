package appendonly

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestWritesOnlyAppend interleaves writes through two handles on one file:
// each lands at the end of the file, after the other handle's, so no byte
// once written is ever overwritten.
func TestWritesOnlyAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg")
	a, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Create(path); err == nil {
		t.Fatal("Create opened a file that already exists")
	}
	b, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []struct {
		f *File
		s string
	}{{a, "head"}, {b, "-one"}, {a, "-two"}, {b, "-three"}} {
		if n, err := w.f.Write([]byte(w.s)); err != nil || n != len(w.s) {
			t.Fatalf("Write(%q) = %d, %v", w.s, n, err)
		}
	}
	for _, f := range []*File{a, b} {
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := "head-one-two-three"; string(got) != want {
		t.Fatalf("file holds %q, want %q", got, want)
	}
	if _, err := Open(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("Open created a file that did not exist")
	}
}

// TestMethodSet pins the handle's surface: it can append, sync and close,
// and nothing else.
func TestMethodSet(t *testing.T) {
	typ := reflect.TypeOf(&File{})
	var got []string
	for i := 0; i < typ.NumMethod(); i++ {
		got = append(got, typ.Method(i).Name)
	}
	if want := []string{"Close", "Sync", "Write"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("*File has methods %v, want exactly %v", got, want)
	}
}
