package cluster

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"

	"cognitivearm/internal/stream"
)

// Control-plane serialization: gob bodies inside internal/stream's
// length-prefixed message frames. The data plane of a migration — the
// session records and models themselves — is NOT re-framed here: it rides
// as a wal socket stream whose frames carry their own CRCs and whose seal
// self-delimits each batch on the connection.
//
// The read helpers thread a reusable payload buffer (stream.ReadMsgBuf):
// loops that exchange messages with many peers — announce on join, leave
// notifications on drain — carry one buffer across iterations so inbound
// frames stop allocating their payloads after the largest-yet. Each helper
// returns the (possibly grown) buffer for the caller's next read.

func writeMemberMsg(w io.Writer, msg memberMsg) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&msg); err != nil {
		return err
	}
	return stream.WriteMsg(w, buf.Bytes())
}

func readMemberMsg(r io.Reader, buf []byte) (memberMsg, []byte, error) {
	payload, err := stream.ReadMsgBuf(r, buf)
	if err != nil {
		return memberMsg{}, buf, err
	}
	var msg memberMsg
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&msg); err != nil {
		return memberMsg{}, payload, fmt.Errorf("cluster: malformed member message: %w", err)
	}
	if msg.ID == "" {
		return memberMsg{}, payload, fmt.Errorf("cluster: member message without ID")
	}
	return msg, payload, nil
}

func writeLocateMsg(w io.Writer, msg locateMsg) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&msg); err != nil {
		return err
	}
	return stream.WriteMsg(w, buf.Bytes())
}

func readLocateMsg(r io.Reader, buf []byte) (locateMsg, []byte, error) {
	payload, err := stream.ReadMsgBuf(r, buf)
	if err != nil {
		return locateMsg{}, buf, err
	}
	var msg locateMsg
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&msg); err != nil {
		return locateMsg{}, payload, fmt.Errorf("cluster: malformed locate message: %w", err)
	}
	if msg.Key == "" {
		return locateMsg{}, payload, fmt.Errorf("cluster: locate message without key")
	}
	return msg, payload, nil
}

func writeAck(w io.Writer, ack ackMsg) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&ack); err != nil {
		return err
	}
	return stream.WriteMsg(w, buf.Bytes())
}

func readAck(r io.Reader, buf []byte) (*ackMsg, []byte, error) {
	payload, err := stream.ReadMsgBuf(r, buf)
	if err != nil {
		return nil, buf, err
	}
	var ack ackMsg
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&ack); err != nil {
		return nil, payload, fmt.Errorf("cluster: malformed ack: %w", err)
	}
	return &ack, payload, nil
}
