// Package nli is a natural language interface to relational data — a
// from-scratch Go reproduction of the classic rule-based NLIDB
// architecture ("Natural Language Interfaces", SIGMOD 1978 lineage; see
// DESIGN.md for the full provenance note).
//
// A user question flows through the era's three tasks:
//
//  1. lexical analysis and entity annotation — tokenizing (with
//     spelling correction) and mapping spans onto schema elements and
//     stored data values via a semantic index;
//  2. interpretation — parsing with an ambiguity-preserving semantic
//     grammar into logical queries, then ranking readings by lexical
//     match quality and join-graph coherence;
//  3. structured query generation — translating the winning logical
//     query into SQL, executing it on the built-in relational engine,
//     and echoing an English paraphrase plus a verbalized answer.
//
// Quickstart:
//
//	eng, err := nli.Open("university", 1)
//	if err != nil { ... }
//	ans, err := eng.Ask("how many students are in Computer Science?")
//	fmt.Println(ans.Response) // "There are 30 matching students."
//	fmt.Println(ans.SQL)      // the generated SQL
//
// Multi-turn exploration:
//
//	conv := eng.NewConversation()
//	conv.Ask("students in Computer Science")
//	conv.Ask("only those with gpa over 3.5")
//	conv.Ask("how many")
//
// A conversation turn is the same pipeline as Ask with one more input,
// the interpretation of the last turn that succeeded: a complete
// question replaces it (and is cached and corrected exactly as outside
// a conversation), a fragment the full grammar rejects refines it, and
// a turn that fails — at any stage, a cancelled context included —
// leaves it untouched (DESIGN.md § 2.10).
//
// Everything is pure Go standard library; the three bundled datasets
// (university, geo, sales) are deterministic, so all results in
// EXPERIMENTS.md regenerate exactly.
//
// A built engine is safe for concurrent Ask calls and is designed to
// be shared across request handlers: queries execute on a morsel-
// driven parallel operator pipeline (Options.Parallelism; see
// DESIGN.md § 2.2), repeated hot questions are served from a bounded
// answer cache with per-table invalidation (Options.AnswerCacheSize),
// and questions repeating a *shape* with different constants ("sales
// in march" / "sales in april") reuse one compiled plan through the
// prepared-query template cache (Options.PlanCacheSize; DESIGN.md
// § 2.6) — hot shapes bind instead of planning.
package nli

import (
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/sql"
	"repro/internal/store"
)

// Engine is the end-to-end natural language interface for one database.
type Engine = core.Engine

// Options configures an Engine; every knowledge source (synonyms,
// stemming, value index, spelling correction) and grammar rule group
// can be switched off for ablation.
type Options = core.Options

// Answer is the complete outcome of one question: interpretations,
// generated SQL, executed result, English paraphrase and response, and
// per-stage timings.
type Answer = core.Answer

// Conversation is a multi-turn dialogue session with context carryover.
type Conversation = core.Conversation

// Result is an executed query result (column names plus rows).
type Result = exec.Result

// DB is an in-memory relational database bound to a schema.
type DB = store.DB

// DefaultOptions enables every knowledge source and rule group.
func DefaultOptions() Options { return core.DefaultOptions() }

// New builds an engine over a populated database: it scans the data
// into the semantic index and compiles the question grammar.
func New(db *DB, opts Options) *Engine { return core.NewEngine(db, opts) }

// Open loads one of the bundled datasets ("university", "geo",
// "sales") at the given scale and builds an engine over it with
// default options.
func Open(name string, scale int) (*Engine, error) {
	db, err := dataset.ByName(name, scale)
	if err != nil {
		return nil, err
	}
	return New(db, DefaultOptions()), nil
}

// Dataset loads one of the bundled datasets without building an engine.
func Dataset(name string, scale int) (*DB, error) {
	return dataset.ByName(name, scale)
}

// OpenDir builds an engine over user data: schemaFile holds CREATE
// TABLE statements (see sql.ParseSchema for the dialect, including the
// SYNONYMS and NAMED extensions that feed the semantic index), and
// dataDir holds one <table>.csv per table (header row, empty cells are
// NULL).
func OpenDir(schemaFile, dataDir string) (*Engine, error) {
	src, err := os.ReadFile(schemaFile)
	if err != nil {
		return nil, fmt.Errorf("nli: reading schema: %w", err)
	}
	s, err := sql.ParseSchema("user", string(src))
	if err != nil {
		return nil, err
	}
	db := store.NewDB(s)
	if err := db.LoadCSVDir(dataDir); err != nil {
		return nil, fmt.Errorf("nli: loading data: %w", err)
	}
	return New(db, DefaultOptions()), nil
}

// Datasets lists the bundled dataset names.
func Datasets() []string { return dataset.Names() }

// FormatResult renders a result as an aligned text table.
func FormatResult(r *Result) string { return exec.FormatResult(r) }

// Explain compiles stmt against db and renders the optimized serial
// execution plan.
func Explain(db *DB, stmt *sql.SelectStmt) (string, error) {
	return ExplainParallel(db, stmt, 1)
}

// ExplainParallel renders the plan at the given intra-query
// parallelism degree — what an engine with Options.Parallelism = par
// actually executes, exchange operator and per-node worker
// annotations included. The console's :explain command uses this.
func ExplainParallel(db *DB, stmt *sql.SelectStmt, par int) (string, error) {
	p, err := exec.Compile(db.Snapshot(), stmt, par)
	if err != nil {
		return "", err
	}
	return p.Explain(), nil
}
