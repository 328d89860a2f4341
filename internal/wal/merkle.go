// Merkle batching over WAL entry hashes. Every appended entry contributes
// one SHA-256 leaf (hashed over the framed record payload, so kind and
// sequence number are covered, not just the caller's bytes); Seal folds the
// pending leaves into a batch root, and segment rotation folds the batch
// roots into a single segment root stored in the footer. A verifier can
// therefore prove an entire segment with one 32-byte comparison, or narrow a
// mismatch to a batch without replaying payloads.
//
// The tree shape follows the usual duplicate-last convention: leaves are
// combined pairwise (sha256(left || right)); an odd node at any level is
// paired with itself. A single leaf's root is the leaf hash. The empty root
// is all zeroes and never written — sealing an empty batch is a no-op.
package wal

import (
	"crypto/sha256"
	"runtime"
	"slices"
	"sync"
)

// HashSize is the width of every leaf, batch root, and segment root.
const HashSize = sha256.Size

// HashLeaf hashes one record payload into a Merkle leaf.
func HashLeaf(payload []byte) [HashSize]byte {
	return sha256.Sum256(payload)
}

// parallelLeafBytes is the least payload hashLeaves spreads over workers.
// One core hashes it in about 0.2 ms; below that, waking workers and waiting
// for the slowest is no longer small beside what they would share.
const parallelLeafBytes = 256 << 10

// hashLeaves appends the HashLeaf of every payload to dst, in order. From
// parallelLeafBytes of payload on, it cuts the payloads into contiguous runs
// of about equal bytes, one per GOMAXPROCS worker, the caller hashing the
// last; the leaves are those of a serial HashLeaf loop either way.
func hashLeaves(dst [][HashSize]byte, payloads [][]byte) [][HashSize]byte {
	at := len(dst)
	dst = slices.Grow(dst, len(payloads))[:at+len(payloads)]
	out := dst[at:]
	total := 0
	for _, p := range payloads {
		total += len(p)
	}
	workers := min(runtime.GOMAXPROCS(0), len(payloads))
	if workers < 2 || total < parallelLeafBytes {
		hashRun(out, payloads)
		return dst
	}
	var wg sync.WaitGroup
	lo, sum := 0, 0
	for w := 1; w < workers; w++ {
		hi, cut := lo, total*w/workers
		for hi < len(payloads) && sum < cut {
			sum += len(payloads[hi])
			hi++
		}
		if hi > lo {
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				hashRun(out[lo:hi], payloads[lo:hi])
			}(lo, hi)
		}
		lo = hi
	}
	hashRun(out[lo:], payloads[lo:])
	wg.Wait()
	return dst
}

func hashRun(out [][HashSize]byte, payloads [][]byte) {
	for i, p := range payloads {
		out[i] = HashLeaf(p)
	}
}

// Root folds leaf hashes into a Merkle root, pairwise with duplicate-last.
// It does not modify leaves. Root(nil) is the zero hash.
func Root(leaves [][HashSize]byte) [HashSize]byte {
	switch len(leaves) {
	case 0:
		return [HashSize]byte{}
	case 1:
		return leaves[0]
	}
	level := append([][HashSize]byte(nil), leaves...)
	var buf [2 * HashSize]byte
	for len(level) > 1 {
		next := level[:0]
		for i := 0; i < len(level); i += 2 {
			right := i
			if i+1 < len(level) {
				right = i + 1
			}
			copy(buf[:HashSize], level[i][:])
			copy(buf[HashSize:], level[right][:])
			next = append(next, sha256.Sum256(buf[:]))
		}
		level = next
	}
	return level[0]
}
