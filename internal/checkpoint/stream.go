package checkpoint

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"sort"

	"cognitivearm/internal/models"
)

// The streamed checkpoint variant: the same CRC-framed records a checkpoint
// directory holds, concatenated into one self-delimiting byte stream over any
// io.Writer/io.Reader pair. This is what makes per-session state cheap to
// ship between nodes — internal/cluster streams a FleetState (usually a
// handful of sessions plus the models they reference) over a TCP connection
// for live migration, and a replica could tail the same stream.
//
// Layout (normative spec in ARCHITECTURE.md):
//
//	stream := header(kind=4) manifest-record model-record* session-record*
//
// The manifest comes first and delimits the rest: its Models index (in
// order) announces how many model records follow, and its Sessions count how
// many session records. ReadStream therefore consumes exactly one checkpoint
// from the reader and leaves anything after it — e.g. a protocol ack on the
// same connection — unread. Every record carries its own CRC-32C, so a torn
// or bit-flipped transfer fails loudly instead of restoring a wrong fleet.

// WriteStream encodes state onto w in the streamed checkpoint format. Models
// are written in sorted key order, sessions in the order given. The stream is
// buffered record by record; w sees only complete frames.
func WriteStream(w io.Writer, state *FleetState) error {
	if state == nil {
		return fmt.Errorf("checkpoint: nil state")
	}
	if len(state.ModelRefs) > 0 {
		// Streams have no sibling directories to resolve references against.
		return fmt.Errorf("checkpoint: stream requires a self-contained state (has %d model refs)", len(state.ModelRefs))
	}
	man := state.Manifest
	man.Sessions = len(state.Sessions)
	man.Models = nil
	// A stream is always self-contained: drop any incremental bookkeeping a
	// directory-oriented capture may carry.
	man.Refs = nil
	man.Format = 0
	man.Base = 0
	man.Increments = 0

	keys := make([]string, 0, len(state.Models))
	for k := range state.Models {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		// File is a directory-layout concern; in a stream, order alone
		// associates the Nth model record with the Nth manifest entry.
		man.Models = append(man.Models, ModelEntry{Key: key, MACs: state.ModelMACs[key]})
	}

	fw, err := newFileWriter(w, KindStream)
	if err != nil {
		return fmt.Errorf("checkpoint: stream header: %w", err)
	}
	var mbuf bytes.Buffer
	if err := gob.NewEncoder(&mbuf).Encode(&man); err != nil {
		return fmt.Errorf("checkpoint: stream manifest: %w", err)
	}
	if err := fw.writeRecord(RecManifest, mbuf.Bytes()); err != nil {
		return fmt.Errorf("checkpoint: stream manifest: %w", err)
	}
	for _, key := range keys {
		var payload bytes.Buffer
		if err := models.Save(&payload, state.Models[key]); err != nil {
			return fmt.Errorf("checkpoint: stream model %q: %w", key, err)
		}
		if err := fw.writeRecord(RecModel, payload.Bytes()); err != nil {
			return fmt.Errorf("checkpoint: stream model %q: %w", key, err)
		}
	}
	for i := range state.Sessions {
		if _, err := fw.writeSession(&state.Sessions[i]); err != nil {
			return fmt.Errorf("checkpoint: stream: %w", err)
		}
	}
	return nil
}

// ReadStream decodes exactly one streamed checkpoint from r, leaving any
// bytes after the final session record unread. It applies the same strict
// validation as Load: every CRC must hold, record counts must match the
// manifest, and every session must reference a streamed model. Errors wrap
// ErrCorrupt or ErrVersion where applicable.
func ReadStream(r io.Reader) (*FleetState, error) {
	fr, err := newFileReader(r, KindStream)
	if err != nil {
		return nil, err
	}
	next := func(want byte, what string) ([]byte, error) {
		typ, payload, err := fr.readRecord()
		if err != nil {
			if err == io.EOF {
				return nil, fmt.Errorf("%w: stream truncated before %s", ErrCorrupt, what)
			}
			return nil, err
		}
		if typ != want {
			return nil, fmt.Errorf("%w: record type %d, want %d (%s)", ErrCorrupt, typ, want, what)
		}
		return payload, nil
	}

	payload, err := next(RecManifest, "manifest")
	if err != nil {
		return nil, err
	}
	var man Manifest
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&man); err != nil {
		return nil, fmt.Errorf("%w: stream manifest: %v", ErrCorrupt, err)
	}
	if man.Hub.Shards < 1 || man.Hub.MaxSessionsPerShard < 1 || man.Hub.TickHz <= 0 {
		return nil, fmt.Errorf("%w: stream manifest hub config %+v", ErrCorrupt, man.Hub)
	}

	state := &FleetState{
		Manifest:  man,
		Models:    make(map[string]models.Classifier, len(man.Models)),
		ModelMACs: make(map[string]int64, len(man.Models)),
	}
	for _, me := range man.Models {
		payload, err := next(RecModel, fmt.Sprintf("model %q", me.Key))
		if err != nil {
			return nil, err
		}
		clf, err := models.Load(bytes.NewReader(payload))
		if err != nil {
			return nil, fmt.Errorf("%w: stream model %q: %v", ErrCorrupt, me.Key, err)
		}
		state.Models[me.Key] = clf
		state.ModelMACs[me.Key] = me.MACs
	}
	for i := 0; i < man.Sessions; i++ {
		payload, err := next(RecSession, fmt.Sprintf("session record %d", i))
		if err != nil {
			return nil, err
		}
		var rec SessionRecord
		if err := DecodeSessionRecord(payload, &rec); err != nil {
			return nil, fmt.Errorf("stream session record %d: %w", i, err)
		}
		if _, ok := state.Models[rec.ModelKey]; !ok {
			return nil, fmt.Errorf("%w: stream session %d references unknown model %q", ErrCorrupt, rec.ID, rec.ModelKey)
		}
		state.Sessions = append(state.Sessions, rec)
	}
	return state, nil
}
