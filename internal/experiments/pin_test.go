package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestTable1Pinned pins Table 1 at benchmark scale (4000 references per
// thread, the -quick grid, as BenchmarkTable1 runs it): the engine
// events fired across its simulations and the SHA-256 of the rendered
// markdown. Like TestResultDigestsPinned, a pin moves only with a
// change that means to alter simulated behaviour or the table's
// rendering, and that change must say why.
func TestTable1Pinned(t *testing.T) {
	const (
		wantEvents = 1046438
		wantDigest = "882eacc2bd130d185ca2b8d0085e23a667c0841c7b6f4f7c2a9c9b89a3dfdc64"
	)
	r := NewRunner(Options{RefsPerThread: 4000, Quick: true})
	var buf bytes.Buffer
	if err := r.Run("table1", &buf); err != nil {
		t.Fatal(err)
	}
	if got := r.SimEvents(); got != wantEvents {
		t.Errorf("table1 fired %d events, pinned %d", got, wantEvents)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != wantDigest {
		t.Errorf("table1 markdown digest %s, pinned %s", got, wantDigest)
	}
}
