package serve

import (
	"bytes"
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/store"
)

// The response encoder of /api/ask and /api/interpret. It appends the
// answer straight from store.Values into a pooled buffer and hands the
// whole body to one Write — no [][]any, no reflection — and it is the
// only place that knows the wire form of an answer:
//
//	{"question":…,                                          per request
//	 "paraphrase":…,"response":…,"sql":…,"columns":…,"rows":…,   per answer
//	 "session":…,"follow_up":…,"cached":…,"plan_cached":…,
//	 "reading_cached":…,"degraded":…,"timings":{…}}\n         per request
//
// Every field but question and timings is omitted when empty. The
// middle depends only on what an answer-cache entry owns, so a hit
// copies it from the entry's core.Rendering, which the first hit of
// that entry fills; a miss appends its rows directly.
//
// The bytes are exactly what encoding/json writes for the struct that
// used to be marshalled here (it survives in encode_test.go as the
// oracle): its field order and omitempty rules, its HTML-safe string
// escaping, its float formatting, its trailing newline. Clients and
// the question benchmark compare raw bytes; keep it that way. The one
// departure is deliberate: a NaN or infinite float, which
// encoding/json refuses (leaving a 200 with an empty body), is null.

// bufPool holds the byte buffers request bodies are read into and
// responses are built in. A buffer that grew past maxPooledBuf serving
// one large answer is left to the collector instead of pinning that
// much behind every pool slot.
var bufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

const maxPooledBuf = 64 << 10

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(p *[]byte) {
	if cap(*p) <= maxPooledBuf {
		*p = (*p)[:0]
		bufPool.Put(p)
	}
}

// writeAnswer sends ans as a 200.
func writeAnswer(w http.ResponseWriter, ans *core.Answer, session string, followUp bool) {
	p := getBuf()
	*p = appendAnswer(*p, ans, session, followUp)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(*p) // a failed write is a client that went away
	putBuf(p)
}

func appendAnswer(b []byte, ans *core.Answer, session string, followUp bool) []byte {
	b = append(b, `{"question":`...)
	b = appendString(b, ans.Question)
	b = append(b, ',')
	if ans.Rendered != nil {
		b = append(b, ans.Rendered.Bytes(func() []byte { return renderAnswerBody(ans) })...)
	} else {
		b = appendAnswerBody(b, ans)
	}
	b = appendStringField(b, "session", session)
	b = appendFlag(b, "follow_up", followUp)
	b = appendFlag(b, "cached", ans.Cached)
	b = appendFlag(b, "plan_cached", ans.PlanCached)
	b = appendFlag(b, "reading_cached", ans.ReadingCached)
	b = appendFlag(b, "degraded", ans.Degraded)

	// Timings in microseconds — the resolution the dashboards
	// aggregate at.
	tm := &ans.Timings
	b = append(b, `"timings":{`...)
	for _, stage := range [...]struct {
		name string
		d    int64
	}{
		{"queue_us", tm.Queue.Microseconds()},
		{"correct_us", tm.Correct.Microseconds()},
		{"annotate_us", tm.Annotate.Microseconds()},
		{"parse_us", tm.Parse.Microseconds()},
		{"rank_us", tm.Rank.Microseconds()},
		{"generate_us", tm.Generate.Microseconds()},
		{"plan_us", tm.Plan.Microseconds()},
		{"bind_us", tm.Bind.Microseconds()},
		{"execute_us", tm.Execute.Microseconds()},
		{"verbalize_us", tm.Verbalize.Microseconds()},
		{"total_us", tm.Total.Microseconds()},
	} {
		b = appendName(b, stage.name)
		b = strconv.AppendInt(b, stage.d, 10)
		b = append(b, ',')
	}
	b[len(b)-1] = '}' // the last stage's comma
	return append(b, "}\n"...)
}

// renderAnswerBody builds the bytes an answer-cache entry keeps: exact
// size, since they live as long as the entry does.
func renderAnswerBody(ans *core.Answer) []byte {
	p := getBuf()
	*p = appendAnswerBody(*p, ans)
	out := bytes.Clone(*p)
	putBuf(p)
	return out
}

// appendAnswerBody appends the per-answer fields, each with its
// trailing comma (timings always follows). It reads only what a cache
// entry owns: core.Rendering's contract.
func appendAnswerBody(b []byte, ans *core.Answer) []byte {
	b = appendStringField(b, "paraphrase", ans.Paraphrase)
	b = appendStringField(b, "response", ans.Response)
	if ans.SQL != nil {
		b = appendStringField(b, "sql", ans.SQL.String())
	}
	res := ans.Result
	if res == nil {
		return b
	}
	if len(res.Cols) > 0 {
		b = appendName(b, "columns")
		b = append(b, '[')
		for i, c := range res.Cols {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(b, c)
		}
		b = append(b, "],"...)
	}
	if len(res.Rows) > 0 {
		b = appendName(b, "rows")
		b = append(b, '[')
		for i, row := range res.Rows {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, '[')
			for j, v := range row {
				if j > 0 {
					b = append(b, ',')
				}
				b = appendValue(b, v)
			}
			b = append(b, ']')
		}
		b = append(b, "],"...)
	}
	return b
}

// appendName appends `"name":`; names are ASCII literals that need no
// escaping.
func appendName(b []byte, name string) []byte {
	b = append(b, '"')
	b = append(b, name...)
	return append(b, `":`...)
}

// appendStringField appends `"name":"v",`, or nothing for an empty v
// (omitempty).
func appendStringField(b []byte, name, v string) []byte {
	if v == "" {
		return b
	}
	b = appendName(b, name)
	b = appendString(b, v)
	return append(b, ',')
}

// appendFlag appends `"name":true,`, or nothing when v is false
// (omitempty).
func appendFlag(b []byte, name string, v bool) []byte {
	if !v {
		return b
	}
	b = appendName(b, name)
	return append(b, "true,"...)
}

// appendValue maps a store value onto its JSON shape.
func appendValue(b []byte, v store.Value) []byte {
	switch v.Kind() {
	case store.KindInt:
		return strconv.AppendInt(b, v.Int64(), 10)
	case store.KindFloat:
		f, _ := v.AsFloat()
		return appendFloat(b, f)
	case store.KindText:
		return appendString(b, v.Str())
	case store.KindBool:
		return strconv.AppendBool(b, v.BoolVal())
	default:
		return append(b, "null"...)
	}
}

// appendFloat is encoding/json's float64 encoder — the ES6 number
// format: 'f' except below 1e-6 and from 1e21 up, where it is 'e' with
// a one-digit negative exponent unpadded (e-07 → e-7) — plus null for
// the values JSON cannot spell.
func appendFloat(b []byte, f float64) []byte {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return append(b, "null"...)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

const hexDigits = "0123456789abcdef"

// appendString is encoding/json's string encoder with HTML escaping
// on, its Encoder default: besides the quote, the backslash and
// control characters, it escapes <, > and & as \u00XX and U+2028/9 as
// \u202X, and writes the six characters \ufffd for each byte of invalid
// UTF-8.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			start = i + size
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			start = i + size
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
