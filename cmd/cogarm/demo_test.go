package main

import (
	"bytes"
	"os"
	"testing"
)

// TestDemoGolden pins the scripted scenario's whole output at seed 42: the
// servo angles after each step, the tick count, the modelled latency and
// the label counts. The loop is deterministic, so any byte that moves is a
// change in what the arm does.
func TestDemoGolden(t *testing.T) {
	var got bytes.Buffer
	if err := run(&got, 42); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/demo.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("demo output moved:\n--- got\n%s--- want (testdata/demo.golden)\n%s", got.Bytes(), want)
	}
}
