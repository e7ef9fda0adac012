package store_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/dataset"
	"repro/internal/store"
)

// sealedBytesGolden is the SHA-256 over the SegmentFingerprint of
// every sealed segment of dataset.Telemetry(1<<17), tables in schema
// order. It pins the sealed encodings, zone maps and null bitmaps byte
// for byte, so a change to how rows reach the encoder cannot move them.
const sealedBytesGolden = "b9afb1904349ddd993677874efffe87e72656bf1c1d3e9ae0e6486cf2ed80877"

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
			h.Write(store.SegmentFingerprint(seg))
		}
	}
	if sealed == 0 {
		t.Fatal("no sealed segment")
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != sealedBytesGolden {
		t.Errorf("sealed segment layout: sha256 %s over %d segments, want %s", got, sealed, sealedBytesGolden)
	}
}
