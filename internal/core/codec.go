package core

import (
	"bytes"
	"encoding/gob"
)

// Codec serialises application search-tree nodes for wire transports.
// Single-process runs never invoke it — the loopback transport passes
// nodes by reference — so applications only provide one to enable the
// multi-process distributed mode.
//
// Encode and Decode must be inverses and safe for concurrent use
// (transports serve steals from their receive goroutines). EncodeTo is
// the append-style fast path used by the engine when filling steal
// replies: it appends n's encoding to dst and returns the extended
// slice, so hot codecs can encode straight into a batch buffer without
// an intermediate allocation. EncodeTo(nil, n) must be equivalent to
// Encode(n).
//
// Neither direction owns its buffer. EncodeTo must only append: dst's
// bytes are other tasks' encodings. Decode must not retain or alias b, a
// window on a transport's receive image that the next frame overwrites:
// what the node keeps it copies (TestCodecContract checks every codec).
type Codec[N any] interface {
	Encode(n N) ([]byte, error)
	EncodeTo(dst []byte, n N) ([]byte, error)
	Decode(b []byte) (N, error)
}

// GobCodec is encoding/gob over a value: the codec of what crosses a
// run's edges rather than its steal path — an enumeration's monoid value
// on a completion ack, every rank's Stats gathered at the end of a
// distributed search, and the spill segments of a single-process run,
// which has no application codec. Each value is a self-describing gob
// stream, robust but not compact: an application's nodes cross the wire
// through the hand-written Codec its package exports, never through this.
type GobCodec[N any] struct{}

// Encode implements Codec.
func (GobCodec[N]) Encode(n N) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&n); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// EncodeTo implements Codec. Gob must own its stream, so this is
// Encode plus a copy — one reason hand-written codecs win on the wire.
func (c GobCodec[N]) EncodeTo(dst []byte, n N) ([]byte, error) {
	b, err := c.Encode(n)
	if err != nil {
		return nil, err
	}
	return append(dst, b...), nil
}

// Decode implements Codec.
func (GobCodec[N]) Decode(b []byte) (N, error) {
	var n N
	err := gob.NewDecoder(bytes.NewReader(b)).Decode(&n)
	return n, err
}
