// Fixture for zeroalloc: allocating constructs inside //cogarm:zeroalloc
// functions, the amortized-reuse patterns that are allowed, transitive
// in-package propagation, cross-package facts, and line suppressions.
package za

import "za/dep"

type state struct {
	buf   []int
	m     map[string]int
	iface any
}

//cogarm:zeroalloc
func allocators(s *state, n int) {
	_ = make([]int, n)   // want `zeroalloc: make allocates`
	_ = new(int)         // want `zeroalloc: new allocates`
	_ = []int{1, 2}      // want `zeroalloc: slice literal allocates`
	_ = map[string]int{} // want `zeroalloc: map literal allocates`
	_ = &state{}         // want `zeroalloc: &composite literal escapes`
	s.m["k"] = 1         // want `zeroalloc: map write may allocate`
	go func() {}()       // want `zeroalloc: go statement allocates` `zeroalloc: call through a function value`
	for i := 0; i < n; i++ {
		defer println() // want `zeroalloc: defer inside a loop heap-allocates` `zeroalloc: println boxes its arguments`
	}
}

//cogarm:zeroalloc
func appends(s *state, extra []int, v int) []int {
	s.buf = append(s.buf, v)     // reuse pattern: fine
	s.buf = append(s.buf[:0], v) // truncate-and-refill: fine
	s.buf = append(extra, v)     // want `zeroalloc: append outside the x = append\(x, ...\) reuse pattern`
	return append(extra, v)      // parameter-owned dst: fine
}

//cogarm:zeroalloc
func strsAndBoxes(s *state, a, b string, n int) {
	_ = a + b           // want `zeroalloc: string concatenation allocates`
	_ = []byte(a)       // want `zeroalloc: conversion of string to byte/rune slice allocates`
	_ = string(rune(n)) // want `zeroalloc: conversion to string allocates`
	s.iface = n         // want `zeroalloc: assignment boxes int into any`
	s.iface = &s.buf    // pointers are already pointer-shaped: fine
}

//cogarm:zeroalloc
func dynamic(f func() int, s *state) int {
	g := s.get // want `zeroalloc: method value get allocates a bound closure`
	_ = g
	return f() // want `zeroalloc: call through a function value cannot be verified`
}

func (s *state) get() int { return len(s.buf) }

// helper is pulled onto the zero-alloc path transitively by caller below;
// the diagnostic lands here, naming the root.
func helper(n int) []int {
	return make([]int, n) // want `zeroalloc: make allocates in helper \(on the zero-alloc path via caller\)`
}

//cogarm:zeroalloc
func caller(n int) []int {
	return helper(n)
}

//cogarm:zeroalloc
func crossPackage(x, n int) {
	_ = dep.Clean(x)
	_ = dep.Dirty(n) // want `zeroalloc: call to za/dep.Dirty, which is not verified zero-alloc`
}

//cogarm:zeroalloc
func suppressed(n int) []int {
	//cogarm:allow zeroalloc -- fixture: warm-up path outside steady state
	return make([]int, n)
}

//cogarm:zeroalloc
func panics(n int) {
	if n < 0 {
		// panic's argument subtree may allocate: the tick is already dead.
		panic("bad n: " + string(rune(n)))
	}
}

type fused interface {
	//cogarm:zeroalloc
	Tick() int
}

type raw interface {
	Tick() int
}

//cogarm:zeroalloc
func viaInterface(f fused, r raw) int {
	if f.Tick() > 0 { // annotated interface method: implementations carry the proof
		return r.Tick() // want `zeroalloc: call to interface method za.\(raw\).Tick, which is not annotated`
	}
	return 0
}

// asmLeaf stands for an assembly routine: nothing to walk, so the two
// annotations together are what makes it a verified leaf.
//
//go:noescape
//cogarm:zeroalloc
func asmLeaf(p *int)

//cogarm:zeroalloc
func asmRetains(p *int) // want `zeroalloc: zero-alloc function asmRetains has no Go body to verify and is not //go:noescape`

//go:noescape
func asmUnannotated(p *int)

//cogarm:zeroalloc
func callsAssembly(n int) {
	asmLeaf(&n)
	asmRetains(&n)     // reported once, at the declaration
	asmUnannotated(&n) // want `zeroalloc: call to asmUnannotated, which has no Go body to verify`
}
