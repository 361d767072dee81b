package maxclique

import (
	"encoding/binary"
	"fmt"

	"yewpar/internal/bitset"
	"yewpar/internal/core"
)

// nodeCodec is the compact wire form of a clique node: size and colour
// bound as uvarints, then the two vertex sets as raw words. On the
// Table 1 graphs this is less than half the size of the gob form,
// which re-describes the struct and both set fields on every node.
type nodeCodec struct{}

// Codec returns the compact Node codec used by the distributed mode;
// all localities of a deployment must use the same codec.
func Codec() core.Codec[Node] { return nodeCodec{} }

// Encode implements core.Codec.
func (c nodeCodec) Encode(n Node) ([]byte, error) { return c.EncodeTo(nil, n) }

// EncodeTo implements core.Codec.
func (nodeCodec) EncodeTo(dst []byte, n Node) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(n.Size))
	dst = binary.AppendUvarint(dst, uint64(n.Bound))
	dst = n.Clique.AppendBinary(dst)
	dst = n.Cands.AppendBinary(dst)
	return dst, nil
}

// Decode implements core.Codec.
func (nodeCodec) Decode(b []byte) (Node, error) {
	var n Node
	size, k := binary.Uvarint(b)
	if k <= 0 {
		return n, fmt.Errorf("maxclique: truncated node size")
	}
	b = b[k:]
	bound, k := binary.Uvarint(b)
	if k <= 0 {
		return n, fmt.Errorf("maxclique: truncated node bound")
	}
	b = b[k:]
	var err error
	if n.Clique, b, err = bitset.ParseBinary(b); err != nil {
		return n, fmt.Errorf("maxclique: clique set: %w", err)
	}
	if n.Cands, b, err = bitset.ParseBinary(b); err != nil {
		return n, fmt.Errorf("maxclique: candidate set: %w", err)
	}
	if len(b) != 0 {
		return n, fmt.Errorf("maxclique: %d trailing bytes after node", len(b))
	}
	n.Size = int(size)
	n.Bound = int(bound)
	return n, nil
}
