package yewpar

import (
	"bytes"
	"testing"

	"yewpar/internal/apps/knapsack"
	"yewpar/internal/apps/maxclique"
	"yewpar/internal/apps/nqueens"
	"yewpar/internal/apps/sip"
	"yewpar/internal/apps/tsp"
	"yewpar/internal/apps/uts"
	"yewpar/internal/core"
	"yewpar/internal/graph"
)

// codecContract holds one codec to the buffer-ownership half of
// core.Codec, over nodes sampled from a real search tree. EncodeTo only
// appends: encoding behind a prefix, into spare capacity, leaves the
// prefix alone and adds exactly Encode's bytes. Decode does not retain
// or alias its input: a node decoded from a buffer that is then
// scribbled over — as a transport's receive image is, by the next
// frame — still re-encodes to the original bytes.
func codecContract[S, N any](t *testing.T, name string, codec core.Codec[N], space S, root N, gen core.GenFactory[S, N]) {
	t.Run(name, func(t *testing.T) {
		prefix := []byte("the tasks encoded before this one")
		for i, n := range benchWalk(space, root, gen, 64) {
			enc, err := codec.Encode(n)
			if err != nil {
				t.Fatalf("node %d: Encode: %v", i, err)
			}
			dst := append(make([]byte, 0, len(prefix)+4*len(enc)+64), prefix...)
			out, err := codec.EncodeTo(dst, n)
			if err != nil {
				t.Fatalf("node %d: EncodeTo: %v", i, err)
			}
			if len(out) < len(prefix) || !bytes.Equal(out[:len(prefix)], prefix) || !bytes.Equal(out[len(prefix):], enc) {
				t.Fatalf("node %d: EncodeTo did more than append Encode's %d bytes to its destination", i, len(enc))
			}

			image := append([]byte(nil), enc...)
			got, err := codec.Decode(image)
			if err != nil {
				t.Fatalf("node %d: Decode: %v", i, err)
			}
			for j := range image {
				image[j] ^= 0xA5
			}
			again, err := codec.Encode(got)
			if err != nil {
				t.Fatalf("node %d: re-Encode: %v", i, err)
			}
			if !bytes.Equal(again, enc) {
				t.Fatalf("node %d: the decoded node changed when its input buffer was overwritten: Decode aliases its input", i)
			}
		}
	})
}

func TestCodecContract(t *testing.T) {
	utsS := &uts.Space{Shape: uts.Binomial, B0: 40, M: 6, Q: 0.16, Seed: 7}
	codecContract(t, "uts", uts.Codec(), utsS, uts.Root(utsS), uts.Gen)
	knapS := knapsack.Generate(40, 10_000, knapsack.StronglyCorrelated, 7)
	codecContract(t, "knapsack", knapsack.Codec(), knapS, knapsack.Root(knapS), knapsack.Gen)
	cliqueS := maxclique.NewSpace(graph.Random(90, 0.6, 7))
	codecContract(t, "maxclique", maxclique.Codec(), cliqueS, maxclique.Root(cliqueS), maxclique.Gen)
	tspS := tsp.GenerateEuclidean(12, 1000, 7)
	codecContract(t, "tsp", tsp.Codec(), tspS, tsp.Root(tspS), tsp.Gen)
	queensS := nqueens.NewSpace(10)
	codecContract(t, "nqueens", nqueens.Codec(), queensS, nqueens.Root(queensS), nqueens.Gen)
	sipS := sip.GenerateSat(40, 0.5, 12, 0.1, 7)
	codecContract(t, "sip", sip.Codec(), sipS, sip.Root(sipS), sip.Gen)
	codecContract(t, "gob", core.GobCodec[maxclique.Node]{}, cliqueS, maxclique.Root(cliqueS), maxclique.Gen)
}
