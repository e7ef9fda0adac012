package nli

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestOpenAndAsk(t *testing.T) {
	eng, err := Open("university", 1)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := eng.Ask(context.Background(), "how many students are in Computer Science?", 0)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Result.Rows[0][0].Int64() != 30 {
		t.Errorf("count = %v", ans.Result.Rows[0][0])
	}
	if !strings.Contains(ans.Response, "30") {
		t.Errorf("response = %q", ans.Response)
	}
}

func TestOpenUnknownDataset(t *testing.T) {
	if _, err := Open("klingon", 1); err == nil {
		t.Error("unknown dataset should error")
	}
}

func TestDatasetsListed(t *testing.T) {
	names := Datasets()
	if len(names) != 3 {
		t.Fatalf("datasets = %v", names)
	}
	for _, n := range names {
		db, err := Dataset(n, 1)
		if err != nil || db.TotalRows() == 0 {
			t.Errorf("Dataset(%s): %v", n, err)
		}
	}
}

func TestNewWithCustomOptions(t *testing.T) {
	db, err := Dataset("geo", 1)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.SpellMaxDist = 2
	eng := New(db, opts)
	ans, err := eng.Ask(context.Background(), "cities in Germny", 0) // two-typo tolerance
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Result.Rows) != 3 {
		t.Errorf("German cities = %d, want 3", len(ans.Result.Rows))
	}
}

func TestConversationPublicAPI(t *testing.T) {
	eng, err := Open("university", 1)
	if err != nil {
		t.Fatal(err)
	}
	conv := eng.NewConversation()
	if _, _, err := conv.Ask(context.Background(), "students in Computer Science", 0); err != nil {
		t.Fatal(err)
	}
	ans, follow, err := conv.Ask(context.Background(), "how many", 0)
	if err != nil || !follow {
		t.Fatalf("follow-up failed: %v", err)
	}
	if ans.Result.Rows[0][0].Int64() != 30 {
		t.Errorf("count = %v", ans.Result.Rows[0][0])
	}
}

func TestFormatResult(t *testing.T) {
	eng, err := Open("geo", 1)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := eng.Ask(context.Background(), "top 3 countries by population", 0)
	if err != nil {
		t.Fatal(err)
	}
	out := FormatResult(ans.Result)
	if !strings.Contains(out, "China") || !strings.Contains(out, "India") {
		t.Errorf("formatted result = %q", out)
	}
}

func TestOpenDirWithUserData(t *testing.T) {
	dir := t.TempDir()
	schemaSQL := `
CREATE TABLE teams (
    team_id INT PRIMARY KEY,
    name TEXT,
    city TEXT NAMED
) SYNONYMS ('team', 'club');

CREATE TABLE players (
    player_id INT PRIMARY KEY,
    name TEXT,
    team_id INT REFERENCES teams(team_id),
    goals INT SYNONYMS ('scores')
) SYNONYMS ('player');
`
	if err := os.WriteFile(filepath.Join(dir, "schema.sql"), []byte(schemaSQL), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "teams.csv"),
		[]byte("team_id,name,city\n1,Rovers,Leeds\n2,United,York\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "players.csv"),
		[]byte("player_id,name,team_id,goals\n1,Alice Kay,1,12\n2,Bo Lin,1,7\n3,Cy Dee,2,19\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	eng, err := OpenDir(filepath.Join(dir, "schema.sql"), dir)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := eng.Ask(context.Background(), "players in Leeds", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Result.Rows) != 2 {
		t.Errorf("Leeds players = %d (sql %s)", len(ans.Result.Rows), ans.SQL)
	}
	ans, err = eng.Ask(context.Background(), "which player has the most goals", 0)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Result.Rows[0][0].Str() != "Cy Dee" {
		t.Errorf("top scorer = %v", ans.Result.Rows[0][0])
	}
	// Synonyms from the DDL work too.
	if _, err := eng.Ask(context.Background(), "how many clubs", 0); err != nil {
		t.Errorf("table synonym failed: %v", err)
	}
}

func TestOpenDirErrors(t *testing.T) {
	if _, err := OpenDir("/nonexistent/schema.sql", "/nonexistent"); err == nil {
		t.Error("missing schema file should fail")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.sql")
	if err := os.WriteFile(bad, []byte("not ddl at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDir(bad, dir); err == nil {
		t.Error("bad DDL should fail")
	}
}
