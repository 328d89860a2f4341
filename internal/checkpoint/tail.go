package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"sort"

	"cognitivearm/internal/models"
	"cognitivearm/internal/wal"
)

// The replication tail: a long-lived stream of incremental checkpoint batches
// over one connection, built from the same dirty-record capture the v2
// checkpoint path computes every interval. Where KindStream frames exactly
// one self-contained FleetState, a KindReplica stream frames an unbounded
// sequence of deltas:
//
//	tail  := header(kind=5) batch*
//	batch := manifest-record model-record* session-record* seal-record
//
// Each batch's manifest carries the replication epoch in Seq (1, 2, 3, … per
// connection — the receiver rejects gaps, so a batch from a stale connection
// can never be applied over a newer tail), the full live-session view in Refs
// (which is how the receiver prunes closed sessions and overlays the volatile
// SampleAcc/IdleTicks fields), and in Models only the models not yet shipped
// on this connection: models are immutable once resolved, so the tail sends
// each one exactly once and later batches reference it by key. Session
// records are the dirty subset since the previous batch, usually empty or a
// handful — steady-state replication costs a manifest per interval, not a
// fleet rewrite.
//
// Every batch ends in a RecSeal carrying the Merkle root (internal/wal tree
// shape) over the batch's record payloads in wire order. The reader
// recomputes the root from what it decoded and rejects the batch on
// mismatch, and both ends expose the root, so a diverged follower is caught
// at apply time — promotion never has to trust an unverified stream.

// TailWriter ships incremental FleetState batches onto one stream. It is the
// sender half of warm-standby replication: construct one per connection,
// call WriteBatch with each dirty-only capture (serve.Hub.CaptureDelta), and
// discard the writer with the connection — per-connection epochs make a
// fresh connection a full resync automatically.
type TailWriter struct {
	fw    *fileWriter
	sent  map[string]struct{}
	epoch uint64
}

// NewTailWriter writes the replica-stream header onto w.
func NewTailWriter(w io.Writer) (*TailWriter, error) {
	fw, err := newFileWriter(w, KindReplica)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: tail header: %w", err)
	}
	return &TailWriter{fw: fw, sent: make(map[string]struct{})}, nil
}

// WriteBatch frames one replication batch from state: its Sessions are the
// dirty records for this interval, its Manifest.Refs the full live view. The
// state must be self-contained (no ModelRefs); models already shipped on
// this writer are deduplicated away. Returns the model and session record
// counts actually written plus the batch's Merkle root (also framed onto the
// wire as the closing seal record). A batch is all-or-nothing on the wire
// only in the sense that any error leaves the stream unusable — abandon the
// writer and its connection on error.
func (tw *TailWriter) WriteBatch(state *FleetState) (modelsSent, sessionsSent int, root [wal.HashSize]byte, err error) {
	if state == nil {
		return 0, 0, root, fmt.Errorf("checkpoint: nil state")
	}
	if len(state.ModelRefs) > 0 {
		return 0, 0, root, fmt.Errorf("checkpoint: tail requires a self-contained state (has %d model refs)", len(state.ModelRefs))
	}
	man := state.Manifest
	tw.epoch++
	man.Seq = tw.epoch
	man.Sessions = len(state.Sessions)
	man.Models = nil
	man.Format = 0
	man.Base = 0
	man.Increments = 0
	// man.Refs rides along as-is: the receiver's pruning and volatile
	// overlay depend on the full live view every batch.

	keys := make([]string, 0, len(state.Models))
	for k := range state.Models {
		if _, done := tw.sent[k]; !done {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, key := range keys {
		man.Models = append(man.Models, ModelEntry{Key: key, MACs: state.ModelMACs[key]})
	}

	var leaves [][wal.HashSize]byte
	var mbuf bytes.Buffer
	if err := gob.NewEncoder(&mbuf).Encode(&man); err != nil {
		return 0, 0, root, fmt.Errorf("checkpoint: tail manifest: %w", err)
	}
	if err := tw.fw.writeRecord(RecManifest, mbuf.Bytes()); err != nil {
		return 0, 0, root, fmt.Errorf("checkpoint: tail manifest: %w", err)
	}
	leaves = append(leaves, wal.HashLeaf(mbuf.Bytes()))
	for _, key := range keys {
		var payload bytes.Buffer
		if err := models.Save(&payload, state.Models[key]); err != nil {
			return 0, 0, root, fmt.Errorf("checkpoint: tail model %q: %w", key, err)
		}
		if err := tw.fw.writeRecord(RecModel, payload.Bytes()); err != nil {
			return 0, 0, root, fmt.Errorf("checkpoint: tail model %q: %w", key, err)
		}
		leaves = append(leaves, wal.HashLeaf(payload.Bytes()))
	}
	for i := range state.Sessions {
		payload, err := tw.fw.writeSession(&state.Sessions[i])
		if err != nil {
			return 0, 0, root, fmt.Errorf("checkpoint: tail: %w", err)
		}
		leaves = append(leaves, wal.HashLeaf(payload))
	}
	root = wal.Root(leaves)
	seal := make([]byte, 4+wal.HashSize)
	binary.LittleEndian.PutUint32(seal[:4], uint32(len(leaves)))
	copy(seal[4:], root[:])
	if err := tw.fw.writeRecord(RecSeal, seal); err != nil {
		return 0, 0, root, fmt.Errorf("checkpoint: tail seal: %w", err)
	}
	// Only a fully framed batch marks its models sent: on any error above the
	// stream is torn and the writer abandoned, so the accounting never drifts.
	for _, key := range keys {
		tw.sent[key] = struct{}{}
	}
	return len(keys), len(state.Sessions), root, nil
}

// Epoch returns the sequence number of the last batch written (0 before the
// first batch).
func (tw *TailWriter) Epoch() uint64 { return tw.epoch }

// TailReader consumes replication batches from one stream — the receiver
// half of warm-standby replication. Unlike ReadStream it does not require
// every session record's ModelKey to resolve within the same batch: the
// model may have arrived on an earlier batch of this tail, and the replica
// store holds the accumulated view.
type TailReader struct {
	fr *fileReader
}

// NewTailReader validates the replica-stream header on r.
func NewTailReader(r io.Reader) (*TailReader, error) {
	fr, err := newFileReader(r, KindReplica)
	if err != nil {
		return nil, err
	}
	return &TailReader{fr: fr}, nil
}

// ReadBatch decodes exactly one batch, blocking until its manifest record
// arrives. It returns io.EOF at a clean inter-batch boundary (the sender
// closed the connection between batches); a tear inside a batch wraps
// ErrCorrupt. The batch's closing seal is verified — a Merkle root
// recomputed from the decoded payloads that does not match what the sender
// framed is divergence, reported as ErrCorrupt before any of the batch can
// be applied. The returned state carries the batch's dirty session records
// in Sessions, the newly shipped models in Models, the full live view in
// Manifest.Refs, and the verified root in TailRoot.
func (tr *TailReader) ReadBatch() (*FleetState, error) {
	typ, payload, err := tr.fr.readRecord()
	if err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, err
	}
	if typ != RecManifest {
		return nil, fmt.Errorf("%w: tail record type %d, want %d (manifest)", ErrCorrupt, typ, RecManifest)
	}
	var man Manifest
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&man); err != nil {
		return nil, fmt.Errorf("%w: tail manifest: %v", ErrCorrupt, err)
	}
	if man.Hub.Shards < 1 || man.Hub.MaxSessionsPerShard < 1 || man.Hub.TickHz <= 0 {
		return nil, fmt.Errorf("%w: tail manifest hub config %+v", ErrCorrupt, man.Hub)
	}
	if man.Seq == 0 {
		return nil, fmt.Errorf("%w: tail batch epoch 0", ErrCorrupt)
	}

	next := func(want byte, what string) ([]byte, error) {
		typ, payload, err := tr.fr.readRecord()
		if err != nil {
			if err == io.EOF {
				return nil, fmt.Errorf("%w: tail truncated before %s", ErrCorrupt, what)
			}
			return nil, err
		}
		if typ != want {
			return nil, fmt.Errorf("%w: tail record type %d, want %d (%s)", ErrCorrupt, typ, want, what)
		}
		return payload, nil
	}

	state := &FleetState{
		Manifest:  man,
		Models:    make(map[string]models.Classifier, len(man.Models)),
		ModelMACs: make(map[string]int64, len(man.Models)),
	}
	leaves := [][wal.HashSize]byte{wal.HashLeaf(payload)}
	for _, me := range man.Models {
		payload, err := next(RecModel, fmt.Sprintf("model %q", me.Key))
		if err != nil {
			return nil, err
		}
		leaves = append(leaves, wal.HashLeaf(payload))
		clf, err := models.Load(bytes.NewReader(payload))
		if err != nil {
			return nil, fmt.Errorf("%w: tail model %q: %v", ErrCorrupt, me.Key, err)
		}
		state.Models[me.Key] = clf
		state.ModelMACs[me.Key] = me.MACs
	}
	for i := 0; i < man.Sessions; i++ {
		payload, err := next(RecSession, fmt.Sprintf("session record %d", i))
		if err != nil {
			return nil, err
		}
		leaves = append(leaves, wal.HashLeaf(payload))
		var rec SessionRecord
		if err := DecodeSessionRecord(payload, &rec); err != nil {
			return nil, fmt.Errorf("tail session record %d: %w", i, err)
		}
		state.Sessions = append(state.Sessions, rec)
	}
	seal, err := next(RecSeal, "batch seal")
	if err != nil {
		return nil, err
	}
	if len(seal) != 4+wal.HashSize {
		return nil, fmt.Errorf("%w: tail seal length %d", ErrCorrupt, len(seal))
	}
	if n := binary.LittleEndian.Uint32(seal[:4]); int(n) != len(leaves) {
		return nil, fmt.Errorf("%w: tail seal covers %d records, batch framed %d", ErrCorrupt, n, len(leaves))
	}
	var sent [wal.HashSize]byte
	copy(sent[:], seal[4:])
	if got := wal.Root(leaves); got != sent {
		return nil, fmt.Errorf("%w: replica stream diverged: batch merkle root mismatch (sender %x…, receiver %x…)",
			ErrCorrupt, sent[:6], got[:6])
	}
	state.TailRoot = sent
	return state, nil
}
