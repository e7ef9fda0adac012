package store_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/dataset"
	"repro/internal/store"
)

// sealedBytesGolden is the SHA-256 over the EncodeSegment bytes of
// every sealed segment of dataset.Telemetry(1<<17), tables in schema
// order. It pins the sealed encodings and zone maps byte for byte, so
// a change to how rows reach the encoder cannot move them.
const sealedBytesGolden = "14c5d893a33f3068f15c004fa0bc80dcc89e883f4203016dc47759c4eec386eb"

func TestSealedBytesGolden(t *testing.T) {
	db := dataset.Telemetry(1 << 17)
	h := sha256.New()
	sealed := 0
	for _, mt := range db.Schema.Tables {
		for _, seg := range db.Table(mt.Name).Snap().Segments().Segs {
			if !seg.Sealed {
				continue
			}
			sealed++
			h.Write(store.EncodeSegment(seg.Cols(), seg.N, seg.Sealed))
		}
	}
	if sealed == 0 {
		t.Fatal("no sealed segment")
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != sealedBytesGolden {
		t.Errorf("sealed segment bytes: sha256 %s over %d segments, want %s", got, sealed, sealedBytesGolden)
	}
}
