package store

import (
	"encoding/binary"
	"math"
)

// SegmentFingerprint lays a segment's layout out as bytes, so two
// layouts compare with bytes.Equal and pin through a hash: the seal
// flag, row and column counts, then per column its kind, encoding,
// zone map (tagged min and max, NULL and row counts), whether it has a
// NULL bitmap and the bitmap's words, and the payload of its encoding
// — and nothing else. Integers are little-endian, counts are uvarints,
// and a string is its uvarint length and bytes. A slice the encoding
// does not read is left out, and a payload slice nil and one empty
// read alike; only the bitmap's presence counts. An encoding is
// written as a fixed tag (encTag), not its SegEncoding value, and FOR
// as its base, the delta width in bytes and the deltas, so the
// fingerprint of a layout never moves when the constants renumber.
func SegmentFingerprint(seg *Segment) []byte {
	cols := seg.Cols()
	var buf []byte
	buf = appendBool(buf, seg.Sealed)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(seg.N))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(cols)))
	for _, c := range cols {
		buf = append(buf, byte(c.Kind), encTag[c.Enc])
		buf = appendValue(buf, c.Zone.Min)
		buf = appendValue(buf, c.Zone.Max)
		buf = binary.AppendUvarint(buf, uint64(c.Zone.Nulls))
		buf = binary.AppendUvarint(buf, uint64(c.Zone.Rows))
		buf = appendBool(buf, c.Nuls != nil)
		for _, w := range c.Nuls {
			buf = binary.LittleEndian.AppendUint64(buf, w)
		}
		switch c.Enc {
		case SegPlain:
			switch c.Kind {
			case KindInt:
				for _, v := range c.Ints {
					buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
				}
			case KindFloat:
				for _, v := range c.Floats {
					buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
				}
			case KindText:
				for _, s := range c.Strs {
					buf = appendString(buf, s)
				}
			case KindBool:
				for _, v := range c.Bools {
					buf = appendBool(buf, v)
				}
			}
		case SegDict:
			buf = binary.AppendUvarint(buf, uint64(len(c.Dict)))
			for _, s := range c.Dict {
				buf = appendString(buf, s)
			}
			for _, code := range c.Codes {
				buf = binary.LittleEndian.AppendUint32(buf, uint32(code))
			}
		case SegFOR:
			buf = binary.LittleEndian.AppendUint64(buf, uint64(c.Base))
			buf = append(buf, 2)
			for _, d := range c.D16 {
				buf = binary.LittleEndian.AppendUint16(buf, d)
			}
		}
	}
	return buf
}

// encTag is the byte SegmentFingerprint writes for each encoding.
var encTag = [...]byte{SegPlain: 0, SegDict: 1, SegFOR: 3}

func appendBool(buf []byte, b bool) []byte {
	if b {
		return append(buf, 1)
	}
	return append(buf, 0)
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// appendValue writes a zone bound as its kind tag and payload.
func appendValue(buf []byte, v Value) []byte {
	buf = append(buf, byte(v.Kind()))
	switch v.Kind() {
	case KindInt:
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v.Int64()))
	case KindFloat:
		f, _ := v.AsFloat()
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
	case KindText:
		buf = appendString(buf, v.Str())
	case KindBool:
		buf = appendBool(buf, v.BoolVal())
	}
	return buf
}
