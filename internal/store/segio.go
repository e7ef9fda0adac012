package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// This file is the byte serialization of a segment — the codec of the
// compressed columnar layout (segment.go), kept as the format a warm
// restart would load. The format mirrors the in-memory encoding
// exactly: decoding materializes the same dict/RLE/FOR/plain column
// payloads, null bitmaps and zone maps byte for byte (the round-trip
// property tests pin this), and no code in the store reads or writes
// a file of it.
//
// Layout (all integers little-endian; var = unsigned varint):
//
//	[0:4]  magic "NLSG"
//	[4]    format version (segFormatVersion)
//	[5]    sealed flag (0/1)
//	[6:10] row count n (u32)
//	[10:14] column count (u32)
//	per column:
//	    kind u8, enc u8
//	    zone: min Value, max Value, nulls var, rows var
//	    null bitmap: present u8; words ⌈n/64⌉ × u64 when present
//	    payload by encoding (see encodeSegColTo)
//	[len-4:len] CRC-32C (Castagnoli) over [0:len-4]
//
// A Value is a kind tag byte plus its payload (int/float: 8 bytes,
// text: var length + bytes, bool: 1 byte, NULL: nothing).
//
// Decoding is defensive end to end: every length is bounds-checked
// against the remaining input before allocation, every structural
// invariant the scan kernels later rely on (ascending RLE run ends
// covering exactly n rows, dictionary codes inside the dictionary,
// exactly one FOR delta width) is validated, and any violation —
// truncation, a corrupted checksum, an illegal kind/encoding combo —
// returns an error. DecodeSegment never panics on arbitrary input
// (FuzzSegmentCodec drives this, checksum both broken and repaired).

// segMagic identifies a serialized segment file.
var segMagic = [4]byte{'N', 'L', 'S', 'G'}

// segFormatVersion is bumped on any incompatible layout change; a
// reader refuses versions it does not know.
const segFormatVersion = 1

// segHeaderLen is magic + version + sealed + n + ncols.
const segHeaderLen = 4 + 1 + 1 + 4 + 4

// segMaxCols bounds the column count a reader accepts — far above any
// real schema, far below anything that could amplify allocation.
const segMaxCols = 1 << 12

var segCRCTable = crc32.MakeTable(crc32.Castagnoli)

// EncodeSegment serializes a segment payload (its decoded columns plus
// the row count and seal flag) into the versioned, checksummed format.
func EncodeSegment(cols []*SegCol, n int, sealed bool) []byte {
	buf := make([]byte, 0, 64+estimateSegSize(cols))
	buf = append(buf, segMagic[:]...)
	buf = append(buf, segFormatVersion)
	if sealed {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(cols)))
	for _, c := range cols {
		buf = encodeSegColTo(buf, c)
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, segCRCTable))
}

func estimateSegSize(cols []*SegCol) int {
	sz := 0
	for _, c := range cols {
		sz += 32 + c.Bytes()
	}
	return sz
}

func encodeSegColTo(buf []byte, c *SegCol) []byte {
	buf = append(buf, byte(c.Kind), byte(c.Enc))
	buf = appendValue(buf, c.Zone.Min)
	buf = appendValue(buf, c.Zone.Max)
	buf = binary.AppendUvarint(buf, uint64(c.Zone.Nulls))
	buf = binary.AppendUvarint(buf, uint64(c.Zone.Rows))
	if c.Nuls == nil {
		buf = append(buf, 0)
	} else {
		buf = append(buf, 1)
		for _, w := range c.Nuls {
			buf = binary.LittleEndian.AppendUint64(buf, w)
		}
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
				if v {
					buf = append(buf, 1)
				} else {
					buf = append(buf, 0)
				}
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
	case SegRLE:
		buf = binary.AppendUvarint(buf, uint64(len(c.RunVals)))
		for _, v := range c.RunVals {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
		}
		for _, e := range c.RunEnds {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(e))
		}
	case SegFOR:
		buf = binary.LittleEndian.AppendUint64(buf, uint64(c.Base))
		switch {
		case c.D8 != nil:
			buf = append(buf, 1)
			buf = append(buf, c.D8...)
		case c.D16 != nil:
			buf = append(buf, 2)
			for _, d := range c.D16 {
				buf = binary.LittleEndian.AppendUint16(buf, d)
			}
		default:
			buf = append(buf, 4)
			for _, d := range c.D32 {
				buf = binary.LittleEndian.AppendUint32(buf, d)
			}
		}
	}
	return buf
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

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
		if v.BoolVal() {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	return buf
}

// segReader is a bounds-checked cursor over serialized segment bytes.
type segReader struct {
	data []byte
	off  int
}

var errSegTruncated = fmt.Errorf("store: truncated segment data")

func (r *segReader) remaining() int { return len(r.data) - r.off }

func (r *segReader) bytes(n int) ([]byte, error) {
	if n < 0 || r.remaining() < n {
		return nil, errSegTruncated
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b, nil
}

func (r *segReader) u8() (byte, error) {
	b, err := r.bytes(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (r *segReader) u32() (uint32, error) {
	b, err := r.bytes(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (r *segReader) u64() (uint64, error) {
	b, err := r.bytes(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

func (r *segReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		return 0, errSegTruncated
	}
	r.off += n
	return v, nil
}

// count reads a uvarint that counts elements of at least width bytes
// each, refusing counts the remaining input cannot possibly hold — the
// allocation-bomb guard of the decoder.
func (r *segReader) count(width int) (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(r.remaining())/uint64(width) {
		return 0, errSegTruncated
	}
	return int(v), nil
}

func (r *segReader) str() (string, error) {
	n, err := r.count(1)
	if err != nil {
		return "", err
	}
	b, err := r.bytes(n)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

func (r *segReader) value() (Value, error) {
	k, err := r.u8()
	if err != nil {
		return Value{}, err
	}
	switch Kind(k) {
	case KindNull:
		return Null(), nil
	case KindInt:
		v, err := r.u64()
		return Int(int64(v)), err
	case KindFloat:
		v, err := r.u64()
		return Float(math.Float64frombits(v)), err
	case KindText:
		s, err := r.str()
		return Text(s), err
	case KindBool:
		b, err := r.u8()
		return Bool(b != 0), err
	}
	return Value{}, fmt.Errorf("store: segment data: unknown value kind %d", k)
}

// DecodeSegment parses serialized segment bytes back into the decoded
// column payloads plus the row count and seal flag. It verifies the
// magic, version and CRC-32C checksum, bounds-checks every length and
// validates every structural invariant; malformed input of any sort —
// truncation, bit rot, hostile bytes — returns an error, never a
// panic, and a fully successful decode is semantically identical to
// the segment that was encoded.
func DecodeSegment(data []byte) (cols []*SegCol, n int, sealed bool, err error) {
	if len(data) < segHeaderLen+4 {
		return nil, 0, false, errSegTruncated
	}
	if [4]byte(data[:4]) != segMagic {
		return nil, 0, false, fmt.Errorf("store: segment data: bad magic")
	}
	if data[4] != segFormatVersion {
		return nil, 0, false, fmt.Errorf("store: segment data: unsupported format version %d", data[4])
	}
	body, sum := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.Checksum(body, segCRCTable) != sum {
		return nil, 0, false, fmt.Errorf("store: segment data: checksum mismatch")
	}
	sealed = data[5] != 0
	n = int(binary.LittleEndian.Uint32(data[6:10]))
	ncols := int(binary.LittleEndian.Uint32(data[10:14]))
	if ncols > segMaxCols {
		return nil, 0, false, fmt.Errorf("store: segment data: %d columns exceeds the format bound", ncols)
	}
	r := &segReader{data: body, off: segHeaderLen}
	cols = make([]*SegCol, ncols)
	for ci := range cols {
		if cols[ci], err = decodeSegCol(r, n); err != nil {
			return nil, 0, false, fmt.Errorf("store: segment data: column %d: %w", ci, err)
		}
	}
	if r.remaining() != 0 {
		return nil, 0, false, fmt.Errorf("store: segment data: %d trailing bytes", r.remaining())
	}
	return cols, n, sealed, nil
}

func decodeSegCol(r *segReader, n int) (*SegCol, error) {
	kindB, err := r.u8()
	if err != nil {
		return nil, err
	}
	encB, err := r.u8()
	if err != nil {
		return nil, err
	}
	kind, enc := Kind(kindB), SegEncoding(encB)
	if kind < KindInt || kind > KindBool {
		return nil, fmt.Errorf("unknown column kind %d", kindB)
	}
	switch {
	case enc == SegPlain:
	case enc == SegDict && kind == KindText:
	case (enc == SegRLE || enc == SegFOR) && kind == KindInt:
	default:
		return nil, fmt.Errorf("illegal encoding %d for kind %s", encB, kind)
	}
	c := &SegCol{Kind: kind, Enc: enc, N: n}
	if c.Zone.Min, err = r.value(); err != nil {
		return nil, err
	}
	if c.Zone.Max, err = r.value(); err != nil {
		return nil, err
	}
	nulls, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	rows, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if nulls > uint64(n) || rows > uint64(n) {
		return nil, fmt.Errorf("zone counts %d/%d exceed %d rows", nulls, rows, n)
	}
	c.Zone.Nulls, c.Zone.Rows = int(nulls), int(rows)
	hasNulls, err := r.u8()
	if err != nil {
		return nil, err
	}
	if hasNulls != 0 {
		words := (n + 63) / 64
		if _, err := r.bytesFor(words, 8); err != nil {
			return nil, err
		}
		r.off -= words * 8
		c.Nuls = make(Bitmap, words)
		for i := range c.Nuls {
			if c.Nuls[i], err = r.u64(); err != nil {
				return nil, err
			}
		}
	}
	switch enc {
	case SegPlain:
		switch kind {
		case KindInt:
			if _, err := r.bytesFor(n, 8); err != nil {
				return nil, err
			}
			r.off -= n * 8
			c.Ints = make([]int64, n)
			for i := range c.Ints {
				v, _ := r.u64()
				c.Ints[i] = int64(v)
			}
		case KindFloat:
			if _, err := r.bytesFor(n, 8); err != nil {
				return nil, err
			}
			r.off -= n * 8
			c.Floats = make([]float64, n)
			for i := range c.Floats {
				v, _ := r.u64()
				c.Floats[i] = math.Float64frombits(v)
			}
		case KindText:
			// Each string takes at least its one-byte length.
			if _, err := r.bytesFor(n, 1); err != nil {
				return nil, err
			}
			r.off -= n
			c.Strs = make([]string, n)
			for i := range c.Strs {
				if c.Strs[i], err = r.str(); err != nil {
					return nil, err
				}
			}
		case KindBool:
			b, err := r.bytes(n)
			if err != nil {
				return nil, err
			}
			c.Bools = make([]bool, n)
			for i := range c.Bools {
				c.Bools[i] = b[i] != 0
			}
		}
	case SegDict:
		dn, err := r.count(1)
		if err != nil {
			return nil, err
		}
		c.Dict = make([]string, dn)
		for i := range c.Dict {
			if c.Dict[i], err = r.str(); err != nil {
				return nil, err
			}
		}
		if _, err := r.bytesFor(n, 4); err != nil {
			return nil, err
		}
		r.off -= n * 4
		c.Codes = make([]int32, n)
		for i := range c.Codes {
			v, _ := r.u32()
			code := int32(v)
			if code < 0 || int(code) >= dn {
				return nil, fmt.Errorf("dictionary code %d outside dictionary of %d", code, dn)
			}
			c.Codes[i] = code
		}
	case SegRLE:
		runs, err := r.count(12) // 8 bytes value + 4 bytes end per run
		if err != nil {
			return nil, err
		}
		if runs == 0 && n > 0 {
			return nil, fmt.Errorf("RLE column with no runs over %d rows", n)
		}
		c.RunVals = make([]int64, runs)
		for i := range c.RunVals {
			v, err := r.u64()
			if err != nil {
				return nil, err
			}
			c.RunVals[i] = int64(v)
		}
		c.RunEnds = make([]int32, runs)
		prev := int32(0)
		for i := range c.RunEnds {
			v, err := r.u32()
			if err != nil {
				return nil, err
			}
			end := int32(v)
			if end <= prev {
				return nil, fmt.Errorf("RLE run ends not ascending at run %d", i)
			}
			c.RunEnds[i], prev = end, end
		}
		if runs > 0 && int(prev) != n {
			return nil, fmt.Errorf("RLE runs cover %d of %d rows", prev, n)
		}
	case SegFOR:
		base, err := r.u64()
		if err != nil {
			return nil, err
		}
		c.Base = int64(base)
		width, err := r.u8()
		if err != nil {
			return nil, err
		}
		switch width {
		case 1:
			b, err := r.bytes(n)
			if err != nil {
				return nil, err
			}
			c.D8 = make([]uint8, n)
			copy(c.D8, b)
		case 2:
			if _, err := r.bytesFor(n, 2); err != nil {
				return nil, err
			}
			r.off -= n * 2
			c.D16 = make([]uint16, n)
			for i := range c.D16 {
				b, _ := r.bytes(2)
				c.D16[i] = binary.LittleEndian.Uint16(b)
			}
		case 4:
			if _, err := r.bytesFor(n, 4); err != nil {
				return nil, err
			}
			r.off -= n * 4
			c.D32 = make([]uint32, n)
			for i := range c.D32 {
				v, _ := r.u32()
				c.D32[i] = v
			}
		default:
			return nil, fmt.Errorf("FOR delta width %d not in {1,2,4}", width)
		}
	}
	return c, nil
}

// bytesFor checks that n elements of the given width fit in the
// remaining input before the caller allocates for them.
func (r *segReader) bytesFor(n, width int) ([]byte, error) {
	return r.bytes(n * width)
}
