package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"repro/internal/dataset"
	"repro/internal/store"
)

// konst is one constant of a question: how it is written in the
// English text and how the engine must render it in the generated SQL.
type konst struct{ text, sql string }

// num renders thousandths as a decimal constant. Dividing an integer
// by 1000 yields the double nearest the decimal, so the shortest
// formatting is the decimal itself and the question text, the parsed
// value and the SQL literal all agree.
func num(milli int) konst {
	f := float64(milli) / 1000
	return konst{strconv.FormatFloat(f, 'f', -1, 64), store.Float(f).String()}
}

func word(s string) konst { return konst{s, "'" + s + "'"} }

// template is one question shape: English text and gold SQL with %s
// slots, and the domain of constant combinations the slots range over.
type template struct {
	text, sql string
	domain    int
	consts    func(k int) []konst // k in [0, domain)
}

// question is one ask of a stream.
type question struct {
	text string
	sql  string // the SQL the engine must generate
	// fixed is the index of the question within a workload whose
	// question set is finite (answers are then checked against a
	// precomputed reference), or -1.
	fixed int
}

func (t template) at(k int) question {
	cs := t.consts(k)
	qa, sa := make([]any, len(cs)), make([]any, len(cs))
	for i, c := range cs {
		qa[i], sa[i] = c.text, c.sql
	}
	return question{text: fmt.Sprintf(t.text, qa...), sql: fmt.Sprintf(t.sql, sa...), fixed: -1}
}

var departments = []string{"Computer Science", "Mathematics", "Physics", "History", "Biology", "Economics"}

// deptGPA ranges over 6 departments x 342 thresholds = 2052 combinations.
func deptGPA(k int) []konst {
	return []konst{word(departments[k%6]), num(1900 + 6*(k/6))}
}

func salaryOver(k int) []konst { return []konst{num((45000 + 25*k) * 1000)} }

// freshTemplates spans F1's short, medium and long question sets over
// the university database. Every domain has at least 2048
// combinations, so with six templates in rotation no question text
// recurs within 12288 asks.
var freshTemplates = []template{
	{"students with gpa over %s",
		"SELECT students.name FROM students WHERE (students.gpa > %s)",
		2048, func(k int) []konst { return []konst{num(1900 + k)} }},
	{"instructors with salary between %s and %s",
		"SELECT instructors.name FROM instructors WHERE instructors.salary BETWEEN %s AND %s",
		2048, func(k int) []konst {
			lo := 45000 + 100*(k%64)
			return []konst{num(lo * 1000), num((lo + 5000 + 250*(k/64)) * 1000)}
		}},
	{"students in %s with gpa over %s",
		"SELECT DISTINCT students.name FROM students, departments WHERE (((students.dept_id = departments.dept_id) AND (departments.name = %s)) AND (students.gpa > %s))",
		2052, deptGPA},
	{"names of students in %s with gpa over %s",
		"SELECT DISTINCT students.name FROM students, departments WHERE (((students.dept_id = departments.dept_id) AND (departments.name = %s)) AND (students.gpa > %s))",
		2052, deptGPA},
	{"show the name and salary of instructors with salary over %s",
		"SELECT instructors.name, instructors.salary FROM instructors WHERE (instructors.salary > %s)",
		2048, salaryOver},
	{"average salary of instructors with salary over %s per department",
		"SELECT departments.name, AVG(instructors.salary) FROM instructors, departments WHERE ((instructors.dept_id = departments.dept_id) AND (instructors.salary > %s)) GROUP BY departments.name",
		2048, salaryOver},
}

// Event timestamps start at tsBase and advance one second per eight
// rows (dataset.TelemetryEventRows), so n rows span n/8 seconds.
const tsBase = 1_700_000_000

func latencyOver(k int) []konst { return []konst{num(1000 + 100*k)} }

// tsWindow ranges a window of width seconds over the first span
// seconds of the log, in steps seconds apart.
func tsWindow(width, span, domain int) func(k int) []konst {
	step := (span - width) / domain
	return func(k int) []konst {
		lo := tsBase + k*step
		return []konst{num(lo * 1000), num((lo + width) * 1000)}
	}
}

// scanTemplates run over the events table of the telemetry database:
// full scans with a residual predicate, grouped scans, a join to the
// device dimension, and ts windows that zone maps can skip to.
func scanTemplates(events int) []template {
	span := events / 8
	return []template{
		{"number of events with latency over %s",
			"SELECT COUNT(*) FROM events WHERE (events.latency_ms > %s)",
			2400, latencyOver},
		{"number of events per level with ts between %s and %s",
			"SELECT events.level, COUNT(*) FROM events WHERE events.ts BETWEEN %s AND %s GROUP BY events.level",
			2048, tsWindow(span/4, span, 2048)},
		{"average latency of events per region with ts between %s and %s",
			"SELECT devices.region, AVG(events.latency_ms) FROM events, devices WHERE ((events.device_id = devices.device_id) AND events.ts BETWEEN %s AND %s) GROUP BY devices.region",
			2048, tsWindow(span/8, span, 2048)},
		{"number of events per service with latency over %s",
			"SELECT events.service, COUNT(*) FROM events WHERE (events.latency_ms > %s) GROUP BY events.service",
			2400, latencyOver},
		{"average latency of events with ts between %s and %s",
			"SELECT AVG(events.latency_ms) FROM events WHERE events.ts BETWEEN %s AND %s",
			2048, tsWindow(span/16, span, 2048)},
		{"number of events with latency over %s and status over %s",
			"SELECT COUNT(*) FROM events WHERE ((events.latency_ms > %s) AND (events.status > %s))",
			2400, func(k int) []konst {
				return []konst{num(1000 + 100*k), num([]int{100, 250, 450}[k%3] * 1000)}
			}},
	}
}

// stream deals questions from a set of templates in rotation; each
// template's constants walk its domain in a seeded coprime stride, so
// a template repeats a combination only after its whole domain.
type stream struct {
	tmpls         []template
	start, stride []int
}

func newStream(tmpls []template, seed int64) *stream {
	r := rand.New(rand.NewSource(seed))
	s := &stream{tmpls: tmpls}
	for _, t := range tmpls {
		stride := t.domain/4 + r.Intn(t.domain/2)
		for gcd(stride, t.domain) != 1 {
			stride++
		}
		s.start = append(s.start, r.Intn(t.domain))
		s.stride = append(s.stride, stride)
	}
	return s
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// at is the i-th question of the stream.
func (s *stream) at(i int) question {
	t := i % len(s.tmpls)
	return s.tmpls[t].at(s.walk(t, i/len(s.tmpls)))
}

// walk is the k-th domain index template t visits.
func (s *stream) walk(t, k int) int {
	d := s.tmpls[t].domain
	return (s.start[t] + (k%d)*s.stride[t]) % d
}

// samples returns n questions per template from the far end of each
// template's walk, which the stream reaches only after a full cycle:
// validating them leaves nothing in the answer cache that the timed
// stream would hit.
func (s *stream) samples(n int) []question {
	var qs []question
	for t, tm := range s.tmpls {
		for j := 1; j <= n; j++ {
			qs = append(qs, tm.at(s.walk(t, tm.domain-j)))
		}
	}
	return qs
}

// repeatSet is the finite question set of ask_repeat: the first
// repeatQuestions questions of ask_fresh's stream.
const repeatQuestions = 64

func repeatSet(seed int64) []question {
	s := newStream(freshTemplates, seed)
	qs := make([]question, repeatQuestions)
	for i := range qs {
		qs[i] = s.at(i)
		qs[i].fixed = i
	}
	return qs
}

// Telemetry sizes of the two scan workloads, and the loader's batches.
const (
	scanEvents    = 1 << 19
	loadingEvents = 1 << 18
	batchRows     = 1024
	batchEvery    = 100 * time.Millisecond
)

// loadingQuestions are the eight fixed questions of ask_while_loading:
// four over devices, which no batch touches and so must stay in the
// answer cache, and four over events, which every batch invalidates.
// The recent window covers where the loaded rows land, the old window
// a range no load reaches.
func loadingQuestions(events int) []question {
	end := tsBase + events/8
	recentLo, recentHi := num((end-2048)*1000), num((end+(1<<16))*1000)
	oldLo, oldHi := num((tsBase+1024)*1000), num((tsBase+3072)*1000)
	qs := []question{
		{text: "how many devices", sql: "SELECT COUNT(*) FROM devices"},
		{text: "how many events", sql: "SELECT COUNT(*) FROM events"},
		{text: "number of devices per region", sql: "SELECT devices.region, COUNT(*) FROM devices GROUP BY devices.region"},
		{text: "number of events with level error", sql: "SELECT COUNT(*) FROM events WHERE (events.level = 'error')"},
		{text: "average priority of devices per region", sql: "SELECT devices.region, AVG(devices.priority) FROM devices GROUP BY devices.region"},
		{text: fmt.Sprintf("number of events per level with ts between %s and %s", recentLo.text, recentHi.text),
			sql: fmt.Sprintf("SELECT events.level, COUNT(*) FROM events WHERE events.ts BETWEEN %s AND %s GROUP BY events.level", recentLo.sql, recentHi.sql)},
		{text: "number of devices with priority over 2", sql: "SELECT COUNT(*) FROM devices WHERE (devices.priority > 2.0)"},
		{text: fmt.Sprintf("average latency of events with ts between %s and %s", oldLo.text, oldHi.text),
			sql: fmt.Sprintf("SELECT AVG(events.latency_ms) FROM events WHERE events.ts BETWEEN %s AND %s", oldLo.sql, oldHi.sql)},
	}
	for i := range qs {
		qs[i].fixed = i
	}
	return qs
}

// Indexes into loadingQuestions the checks single out.
const (
	loadingCountEvents = 1 // "how many events": must read 2^18 + k*1024
	loadingOldWindow   = 7 // unchanged by loads: rows checked in full
)

// onDevices reports whether loading question i reads only devices.
func onDevices(i int) bool { return i%2 == 0 }

// database is a loaded store plus what set-up measured about it.
type database struct {
	db      *store.DB
	rows    int           // rows loaded at set-up
	load    time.Duration // time inside the load calls
	pending []store.Row   // ask_while_loading: the rows the loader will commit
}

func loadUniversity() database {
	start := time.Now()
	db := dataset.University(4) // the nliserver default scale
	return database{db: db, rows: db.TotalRows(), load: time.Since(start)}
}

// loadTelemetry is dataset.Telemetry(events) with the load timed apart
// from row generation, and extra further rows of the same sequence
// generated but held back for a loader.
func loadTelemetry(events, extra int) database {
	devices, all := dataset.DeviceRows(), dataset.TelemetryEventRows(events+extra)
	db := store.NewDB(dataset.TelemetrySchema())
	start := time.Now()
	db.MustBulkInsert("devices", devices)
	db.MustBulkInsert("events", all[:events])
	// The copy lets go of the loaded rows' backing array.
	pending := append([]store.Row(nil), all[events:]...)
	return database{db: db, rows: len(devices) + events, load: time.Since(start), pending: pending}
}
