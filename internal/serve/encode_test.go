package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/sql"
	"repro/internal/store"
)

// The oracle: the structs and the conversion /api/ask and
// /api/interpret marshalled through encoding/json before encode.go
// replaced them. The tests below hold the appender to these bytes.

// timingsJSON is Timings in microseconds — the resolution the
// dashboards aggregate at.
type timingsJSON struct {
	QueueUS     int64 `json:"queue_us"`
	CorrectUS   int64 `json:"correct_us"`
	AnnotateUS  int64 `json:"annotate_us"`
	ParseUS     int64 `json:"parse_us"`
	RankUS      int64 `json:"rank_us"`
	GenerateUS  int64 `json:"generate_us"`
	PlanUS      int64 `json:"plan_us"`
	BindUS      int64 `json:"bind_us"`
	ExecuteUS   int64 `json:"execute_us"`
	VerbalizeUS int64 `json:"verbalize_us"`
	TotalUS     int64 `json:"total_us"`
}

func toTimingsJSON(tm core.Timings) timingsJSON {
	return timingsJSON{
		QueueUS:     tm.Queue.Microseconds(),
		CorrectUS:   tm.Correct.Microseconds(),
		AnnotateUS:  tm.Annotate.Microseconds(),
		ParseUS:     tm.Parse.Microseconds(),
		RankUS:      tm.Rank.Microseconds(),
		GenerateUS:  tm.Generate.Microseconds(),
		PlanUS:      tm.Plan.Microseconds(),
		BindUS:      tm.Bind.Microseconds(),
		ExecuteUS:   tm.Execute.Microseconds(),
		VerbalizeUS: tm.Verbalize.Microseconds(),
		TotalUS:     tm.Total.Microseconds(),
	}
}

// askResponse is the wire form of an answered question.
type askResponse struct {
	Question      string      `json:"question"`
	Paraphrase    string      `json:"paraphrase,omitempty"`
	Response      string      `json:"response,omitempty"`
	SQL           string      `json:"sql,omitempty"`
	Columns       []string    `json:"columns,omitempty"`
	Rows          [][]any     `json:"rows,omitempty"`
	Session       string      `json:"session,omitempty"`
	FollowUp      bool        `json:"follow_up,omitempty"`
	Cached        bool        `json:"cached,omitempty"`
	PlanCached    bool        `json:"plan_cached,omitempty"`
	ReadingCached bool        `json:"reading_cached,omitempty"`
	Degraded      bool        `json:"degraded,omitempty"`
	Timings       timingsJSON `json:"timings"`
}

// valueJSON maps a store value onto its JSON shape.
func valueJSON(v store.Value) any {
	switch v.Kind() {
	case store.KindInt:
		return v.Int64()
	case store.KindFloat:
		f, _ := v.AsFloat()
		return f
	case store.KindText:
		return v.Str()
	case store.KindBool:
		return v.BoolVal()
	default:
		return nil
	}
}

func answerJSON(ans *core.Answer, session string, followUp bool) *askResponse {
	resp := &askResponse{
		Question:      ans.Question,
		Paraphrase:    ans.Paraphrase,
		Response:      ans.Response,
		Session:       session,
		FollowUp:      followUp,
		Cached:        ans.Cached,
		PlanCached:    ans.PlanCached,
		ReadingCached: ans.ReadingCached,
		Degraded:      ans.Degraded,
		Timings:       toTimingsJSON(ans.Timings),
	}
	if ans.SQL != nil {
		resp.SQL = ans.SQL.String()
	}
	if ans.Result != nil {
		resp.Columns = ans.Result.Cols
		resp.Rows = make([][]any, len(ans.Result.Rows))
		for i, r := range ans.Result.Rows {
			row := make([]any, len(r))
			for j, v := range r {
				row[j] = valueJSON(v)
			}
			resp.Rows[i] = row
		}
	}
	return resp
}

// oracleBody is the response body the server used to write for ans.
func oracleBody(t testing.TB, ans *core.Answer, session string, followUp bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(answerJSON(ans, session, followUp)); err != nil {
		t.Fatalf("oracle cannot encode the answer to %q: %v", ans.Question, err)
	}
	return buf.Bytes()
}

var timingValue = regexp.MustCompile(`_us":\d+`)

// zeroTimings zeroes the values inside a body's timings object, the
// only part of a response that differs between two asks of one
// question on twin engines.
func zeroTimings(t testing.TB, body []byte) string {
	t.Helper()
	i := bytes.LastIndex(body, []byte(`"timings":{`))
	if i < 0 {
		t.Fatalf("no timings in %s", body)
	}
	return string(body[:i]) + timingValue.ReplaceAllString(string(body[i:]), `_us":0`)
}

// answerPart is a body up to its per-request tail: the question and
// everything that depends on the data version the answer was computed
// at, without the flags and timings of the one request.
func answerPart(t testing.TB, body []byte) string {
	t.Helper()
	i := bytes.LastIndex(body, []byte(`"timings":{`))
	if i < 0 {
		t.Fatalf("no timings in %s", body)
	}
	part := string(body[:i])
	for _, flag := range []string{`"degraded":true,`, `"reading_cached":true,`, `"plan_cached":true,`, `"cached":true,`} {
		part = strings.TrimSuffix(part, flag)
	}
	return part
}

func shutdownOnCleanup(t testing.TB, s *Server) *Server {
	t.Helper()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s
}

func askBody(question, session string) string {
	req, _ := json.Marshal(askRequest{Question: question, Session: session})
	return string(req)
}

// goldQuestions are copied from internal/bench's corpora (which imports
// this package, so cannot be imported here): every construct class of
// T1, over all three domains.
var goldQuestions = map[string][]string{
	"university": {
		"show all students",
		`instructors named "Ada Lovelace"`,
		"what is the budget of the Physics department",
		"what is the gpa of Tim Perlman",
		"show the name and salary of instructors in Computer Science",
		"students in Computer Science",
		"students in Watson Hall",
		"how many students",
		"what is the average salary of instructors",
		"the maximum gpa of students",
		"average salary of instructors per department",
		"how many students per department",
		"which student has the highest gpa",
		"top 3 instructors by salary",
		"students with gpa over 3.5",
		"instructors with salary between 50000 and 70000",
		"departments with budget over 1.5 million",
		"students not in History",
		"students without grade F",
		"students with gpa above the average",
		"students in Computer Science or Mathematics",
		"how many students in Computer Science or Mathematics",
	},
	"geo": {
		"list all countries",
		"countries in Europe",
		"what is the population of China",
		"the length of the Nile",
		"cities in Brazil",
		"mountains in Japan",
		"how many countries",
		"total area of countries in Europe",
		"total population of countries per continent",
		"average gdp of countries by continent",
		"which country has the largest area",
		"top 3 countries by population",
		"countries with population over 100 million",
		"cities with population between 1000000 and 5000000",
		"countries not in Europe",
		"rivers longer than the Rhine",
		"countries in Europe or Asia",
	},
	"sales": {
		"list all products",
		"products in Accessories",
		"what is the price of the Falcon Laptop",
		"customers in the North region",
		"orders from Tim McCarthy",
		"how many orders",
		"how much revenue",
		"how many orders per year",
		"average price of products per category",
		"which product has the highest price",
		"the cheapest product",
		"products with price between 100 and 400",
		"orders in year 2021",
		"products not in Accessories",
		"products with price above the average",
		"products cheaper than the Owl Monitor",
		"products in Accessories or Displays",
	},
}

// TestAnswerBodiesMatchEncodingJSON: through the handler, every gold
// question's body — as a miss, as the hit that renders the entry's
// middle and as the hit that copies it — is the body encoding/json
// wrote for the same answer, which a twin engine asked directly
// supplies. Sessions, follow-ups and /api/interpret ride along.
func TestAnswerBodiesMatchEncodingJSON(t *testing.T) {
	ctx := context.Background()
	asked := 0
	for domain, questions := range goldQuestions {
		db, err := dataset.ByName(domain, 1)
		if err != nil {
			t.Fatal(err)
		}
		s := shutdownOnCleanup(t, New(core.NewEngine(db, core.DefaultOptions()), Config{}))
		twin := core.NewEngine(db, core.DefaultOptions())
		for _, q := range questions {
			for _, pass := range []string{"miss", "first hit", "second hit"} {
				w := post(s, "/api/ask", askBody(q, ""))
				if w.Code != http.StatusOK {
					t.Fatalf("%s: %q (%s): status %d: %s", domain, q, pass, w.Code, w.Body)
				}
				ans, err := twin.Ask(ctx, q, 0)
				if err != nil {
					t.Fatal(err)
				}
				if ans.Cached != (pass != "miss") {
					t.Fatalf("%s: %q (%s): twin engine reports cached=%v", domain, q, pass, ans.Cached)
				}
				got, want := zeroTimings(t, w.Body.Bytes()), zeroTimings(t, oracleBody(t, ans, "", false))
				if got != want {
					t.Errorf("%s: %q (%s):\n got %s\nwant %s", domain, q, pass, got, want)
				}
			}
			asked++

			w := post(s, "/api/interpret", askBody(q, ""))
			ans, err := twin.Interpret(q)
			if w.Code != http.StatusOK || err != nil {
				t.Fatalf("%s: interpreting %q: status %d, twin error %v", domain, q, w.Code, err)
			}
			if got, want := zeroTimings(t, w.Body.Bytes()), zeroTimings(t, oracleBody(t, ans, "", false)); got != want {
				t.Errorf("%s: interpreting %q:\n got %s\nwant %s", domain, q, got, want)
			}
		}

		if domain != "university" {
			continue
		}
		// A session: a standalone turn that hits the shared answer
		// cache, one that misses, and a follow-up to each.
		conv := twin.NewConversation()
		for _, q := range []string{
			"students in Computer Science", "only those with gpa over 3.5",
			"instructors in Physics", "show their salaries",
		} {
			w := post(s, "/api/ask", askBody(q, "s<1>"))
			if w.Code != http.StatusOK {
				t.Fatalf("session turn %q: status %d: %s", q, w.Code, w.Body)
			}
			ans, followUp, err := conv.Ask(ctx, q, 0)
			if err != nil {
				t.Fatal(err)
			}
			got, want := zeroTimings(t, w.Body.Bytes()), zeroTimings(t, oracleBody(t, ans, "s<1>", followUp))
			if got != want {
				t.Errorf("session turn %q:\n got %s\nwant %s", q, got, want)
			}
			if !strings.Contains(got, `"session":"s\u003c1\u003e"`) {
				t.Errorf("session turn %q: session missing from %s", q, got)
			}
		}
	}
	if asked < 40 {
		t.Errorf("only %d gold questions compared, want at least 40", asked)
	}
}

// TestDegradedBodyMatchesEncodingJSON: the degraded flag and the queue
// wait of a load-shed ask are spelled as encoding/json spelled them.
func TestDegradedBodyMatchesEncodingJSON(t *testing.T) {
	opts := core.DefaultOptions()
	opts.Parallelism = 4
	db := dataset.University(1)
	s := shutdownOnCleanup(t, New(core.NewEngine(db, opts), Config{Capacity: 1, MaxQueue: 4, MaxQueueWait: 2 * time.Second}))
	twin := core.NewEngine(db, opts)

	// Hold all capacity so the ask takes the degraded rung.
	tkt, err := s.adm.admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	released := make(chan struct{})
	go func() {
		time.Sleep(10 * time.Millisecond)
		tkt.release()
		close(released)
	}()
	const q = "students with gpa over 3.7"
	w := post(s, "/api/ask", askBody(q, ""))
	<-released
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	ans, err := twin.Ask(context.Background(), q, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, want := zeroTimings(t, w.Body.Bytes()), zeroTimings(t, oracleBody(t, ans, "", false))
	if got != want {
		t.Errorf("degraded ask:\n got %s\nwant %s", got, want)
	}
	if !strings.Contains(got, `"degraded":true`) {
		t.Errorf("the ask was not degraded: %s", got)
	}
}

// TestReadingCachedBodyMatchesEncodingJSON: a question whose shape
// the reading cache has not seen is sent without reading_cached; the
// same shape with a new number is sent with it, spelled as
// encoding/json spelled it, and with the SQL of the new number.
func TestReadingCachedBodyMatchesEncodingJSON(t *testing.T) {
	db := dataset.University(1)
	s := shutdownOnCleanup(t, New(core.NewEngine(db, core.DefaultOptions()), Config{}))
	twin := core.NewEngine(db, core.DefaultOptions())
	for i, q := range []string{"students with gpa over 3.5", "students with gpa over 3.7"} {
		w := post(s, "/api/ask", askBody(q, ""))
		if w.Code != http.StatusOK {
			t.Fatalf("%q: status %d: %s", q, w.Code, w.Body)
		}
		ans, err := twin.Ask(context.Background(), q, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, want := zeroTimings(t, w.Body.Bytes()), zeroTimings(t, oracleBody(t, ans, "", false))
		if got != want {
			t.Errorf("%q:\n got %s\nwant %s", q, got, want)
		}
		if flagged := strings.Contains(got, `"reading_cached":true`); flagged != (i == 1) {
			t.Errorf("%q: reading_cached %v, want %v: %s", q, flagged, i == 1, got)
		}
	}
}

// TestAppendAnswerProperty: over seeded hand-built answers full of what
// encoders get wrong — strings that need every kind of escape, floats
// on both sides of the format switch, integers beyond 2^53, NULLs,
// empty and missing results — appendAnswer writes encoding/json's
// bytes, on the direct path and through a Rendering alike.
func TestAppendAnswerProperty(t *testing.T) {
	pieces := []string{
		"", "plain text", " ", `"`, `\`, `a"b\c`, "<script>", ">", "&amp;", "'",
		"\x00", "\x01\x1f", "\b\f\n\r\t", "\x7f", "\u2028", "\u2029", "\u2027\u202a",
		"\xff", "\xc3", "\xe2\x80", "\xf0\x9f\x98", "\xed\xa0\x80", "é", "東京", "😀", "\ufffd",
	}
	floats := []float64{
		0, math.Copysign(0, -1), 1, -1, 3.5, 0.1, 100, 1e6, 123456789.125,
		1e-7, -1e-7, 1e-6, 9.99e-7, 1.0000001e-6, 1e-9, 1.5e-10, 1e-300,
		1e20, 1e21, -1e21, 9.999999999999999e20, 1.5e300,
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, math.Pi,
	}
	ints := []int64{0, 1, -1, 1 << 53, 1<<53 + 1, -(1<<53 + 1), math.MaxInt64, math.MinInt64}
	stmts := []*sql.SelectStmt{
		nil,
		sql.MustParse("SELECT name FROM students"),
		sql.MustParse("SELECT s.name, d.name FROM students s, departments d WHERE s.dept_id = d.dept_id AND d.name <> 'R&D <x>' AND s.gpa >= 3.5"),
	}

	r := rand.New(rand.NewSource(20))
	str := func() string {
		var b strings.Builder
		for n := r.Intn(4); n > 0; n-- {
			b.WriteString(pieces[r.Intn(len(pieces))])
		}
		return b.String()
	}
	value := func() store.Value {
		switch r.Intn(8) {
		case 0:
			return store.Null()
		case 1:
			return store.Bool(r.Intn(2) == 0)
		case 2:
			return store.Int(ints[r.Intn(len(ints))])
		case 3:
			return store.Int(r.Int63() >> uint(r.Intn(64)))
		case 4:
			return store.Float(floats[r.Intn(len(floats))])
		case 5:
			for {
				if f := math.Float64frombits(r.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
					return store.Float(f)
				}
			}
		default:
			return store.Text(str())
		}
	}
	dur := func() time.Duration { return time.Duration(r.Int63n(int64(3 * time.Second))) }

	for i := 0; i < 2000; i++ {
		ans := &core.Answer{
			Question:      str(),
			Paraphrase:    str(),
			Response:      str(),
			SQL:           stmts[r.Intn(len(stmts))],
			Cached:        r.Intn(2) == 0,
			PlanCached:    r.Intn(2) == 0,
			ReadingCached: r.Intn(2) == 0,
			Degraded:      r.Intn(4) == 0,
			Timings: core.Timings{Queue: dur(), Correct: dur(), Annotate: dur(), Parse: dur(), Rank: dur(),
				Generate: dur(), Plan: dur(), Bind: dur(), Execute: dur(), Verbalize: dur(), Total: dur()},
		}
		if r.Intn(5) > 0 { // else: no Result at all, as /api/interpret has
			res := &exec.Result{}
			width := r.Intn(4) // zero columns included
			for c := 0; c < width; c++ {
				res.Cols = append(res.Cols, str())
			}
			for n := []int{0, 0, 1, 2, 7}[r.Intn(5)]; n > 0; n-- {
				row := make(store.Row, width)
				for c := range row {
					row[c] = value()
				}
				res.Rows = append(res.Rows, row)
			}
			ans.Result = res
		}
		session, followUp := str(), r.Intn(3) == 0

		want := string(oracleBody(t, ans, session, followUp))
		if got := string(appendAnswer(nil, ans, session, followUp)); got != want {
			t.Fatalf("answer %d, direct:\n got %s\nwant %s", i, got, want)
		}
		ans.Rendered = new(core.Rendering)
		for _, pass := range []string{"rendering", "rendered"} {
			if got := string(appendAnswer(nil, ans, session, followUp)); got != want {
				t.Fatalf("answer %d, %s:\n got %s\nwant %s", i, pass, got, want)
			}
		}
	}
}

// TestNonFiniteFloatIsNull: JSON has no spelling for NaN or an
// infinity, and encoding/json refused them after the 200 had gone out,
// leaving an empty body. They are null, on the miss and on the hits.
func TestNonFiniteFloatIsNull(t *testing.T) {
	db := dataset.University(1)
	for i, s := range []struct {
		name string
		gpa  float64
	}{{"Zed Infinity", math.Inf(1)}, {"Zed Underflow", math.Inf(-1)}, {"Zed Nought", math.NaN()}} {
		if err := db.Insert("students", store.Int(int64(9001+i)), store.Text(s.name),
			store.Int(1), store.Int(4), store.Float(s.gpa)); err != nil {
			t.Fatal(err)
		}
	}
	s := shutdownOnCleanup(t, New(core.NewEngine(db, core.DefaultOptions()), Config{}))
	for _, name := range []string{"Zed Infinity", "Zed Underflow", "Zed Nought"} {
		for _, pass := range []string{"miss", "first hit", "second hit"} {
			m := askJSON(t, s, askBody("what is the gpa of "+name, ""), 200)
			rows, _ := m["rows"].([]any)
			if len(rows) != 1 {
				t.Fatalf("%s (%s): rows = %v, want one", name, pass, m["rows"])
			}
			if row, _ := rows[0].([]any); len(row) != 1 || row[0] != nil {
				t.Errorf("%s (%s): row = %v, want [null]", name, pass, rows[0])
			}
		}
	}
}

// TestSharedRowsStayReadOnly: handler hits share one entry's rows and
// one rendering of them. While a loader invalidates the entries every
// few milliseconds and Engine.AskCtx callers scribble over the copies
// they were given, every body the handler returns must be, outside its
// per-request tail, the body of exactly one data version — one the
// request could have seen — as an uncached engine and encoding/json
// spell it: no rendering outlives its entry, none is torn, and no
// caller's mutation reaches the cache.
func TestSharedRowsStayReadOnly(t *testing.T) {
	const inserts = 20
	questions := []string{"students with gpa over 3.5", "students in Computer Science", "students in year 2"}
	student := func(k int) []store.Value { // matches all three questions
		return []store.Value{store.Int(int64(10000 + k)), store.Text(fmt.Sprintf("Load Student %d", k)),
			store.Int(1), store.Int(2), store.Float(3.9)}
	}

	// The reference takes a twin database through the same versions
	// one at a time.
	refOpts := core.DefaultOptions()
	refOpts.AnswerCacheSize = 0
	refDB := dataset.University(1)
	ref := core.NewEngine(refDB, refOpts)
	versionOf := map[string]int{} // answer part -> inserts it reflects
	for k := 0; k <= inserts; k++ {
		if k > 0 {
			if err := refDB.Insert("students", student(k)...); err != nil {
				t.Fatal(err)
			}
		}
		for _, q := range questions {
			ans, err := ref.Ask(context.Background(), q, 0)
			if err != nil {
				t.Fatal(err)
			}
			part := answerPart(t, oracleBody(t, ans, "", false))
			if _, dup := versionOf[part]; dup {
				t.Fatalf("%q answers the same at two versions: the test cannot tell them apart", q)
			}
			versionOf[part] = k
		}
	}

	eng := core.NewEngine(dataset.University(1), core.DefaultOptions())
	// Capacity for every client at full degree: admission is not what
	// is under test.
	s := shutdownOnCleanup(t, New(eng, Config{Capacity: 64 * eng.Options().Parallelism}))

	var started, done atomic.Int64 // inserts begun, inserts finished
	loaded := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(loaded)
		for k := 1; k <= inserts; k++ {
			started.Store(int64(k))
			if err := eng.DB.Insert("students", student(k)...); err != nil {
				t.Error(err)
				return
			}
			done.Store(int64(k))
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// check asks q through the handler and returns the version answered.
	check := func(q string) (int, bool) {
		lo := done.Load()
		w := post(s, "/api/ask", askBody(q, ""))
		hi := started.Load()
		if w.Code != http.StatusOK {
			t.Errorf("%q: status %d: %s", q, w.Code, w.Body)
			return 0, false
		}
		k, ok := versionOf[answerPart(t, w.Body.Bytes())]
		if !ok {
			t.Errorf("%q: body is no version's answer: %s", q, w.Body)
			return 0, false
		}
		if int64(k) < lo || int64(k) > hi {
			t.Errorf("%q: answered at version %d, but %d inserts had finished before the ask and %d begun after it", q, k, lo, hi)
			return 0, false
		}
		return k, true
	}
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; ; i++ {
				if _, ok := check(questions[i%len(questions)]); !ok {
					return
				}
				select {
				case <-loaded:
					return
				default:
				}
			}
		}(g)
	}
	// Owners of their answers, entitled to ruin them.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			ans, err := eng.AskCtx(context.Background(), questions[i%len(questions)])
			if err != nil {
				t.Error(err)
				return
			}
			rows := ans.Result.Rows
			for a, b := 0, len(rows)-1; a < b; a, b = a+1, b-1 {
				rows[a], rows[b] = rows[b], rows[a]
			}
			for _, row := range rows {
				for c := range row {
					row[c] = store.Text("scribbled")
				}
			}
			select {
			case <-loaded:
				return
			default:
			}
		}
	}()
	wg.Wait()

	for _, q := range questions {
		for _, pass := range []string{"settled", "settled hit", "settled second hit"} {
			if k, ok := check(q); ok && k != inserts {
				t.Errorf("%q (%s): answered at version %d of %d", q, pass, k, inserts)
			}
		}
	}
}
