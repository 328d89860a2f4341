package main

import (
	"flag"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestFlagTableMatches keeps OPERATIONS.md's loadgen flag table in step with
// the binary: exactly one "| `-name`" row per defined flag, and no row for a
// flag that does not exist.
func TestFlagTableMatches(t *testing.T) {
	checkFlagTable(t, "loadgen")
}

// checkFlagTable compares the flags registered on flag.CommandLine (minus
// the test binary's own test.* flags) with the flag rows of OPERATIONS.md's
// "## section" section.
func checkFlagTable(t *testing.T, section string) {
	doc, err := os.ReadFile("../../OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(doc)
	start := strings.Index(text, "\n## "+section+"\n")
	if start < 0 {
		t.Fatalf("OPERATIONS.md has no %q section", section)
	}
	text = text[start+1:]
	if end := strings.Index(text[1:], "\n## "); end >= 0 {
		text = text[:end+1]
	}
	rows := map[string]int{}
	for _, m := range regexp.MustCompile("(?m)^\\| `-([^`]+)`").FindAllStringSubmatch(text, -1) {
		rows[m[1]]++
	}
	defined := map[string]bool{}
	flag.CommandLine.VisitAll(func(f *flag.Flag) {
		if strings.HasPrefix(f.Name, "test.") {
			return
		}
		defined[f.Name] = true
		if n := rows[f.Name]; n != 1 {
			t.Errorf("flag -%s has %d rows in OPERATIONS.md's %s table, want 1", f.Name, n, section)
		}
	})
	for name := range rows {
		if !defined[name] {
			t.Errorf("OPERATIONS.md's %s table documents -%s, which the binary does not define", section, name)
		}
	}
}
