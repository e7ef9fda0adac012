package keyword

import (
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/semindex"
)

func sys(t testing.TB) (*System, *semindex.Index) {
	t.Helper()
	idx := semindex.Build(dataset.University(1), semindex.DefaultOptions())
	return New(idx), idx
}

func TestName(t *testing.T) {
	s, _ := sys(t)
	if s.Name() != "keyword" {
		t.Error("name wrong")
	}
}

func TestBareTableListing(t *testing.T) {
	s, _ := sys(t)
	stmt, err := s.Translate("show all students")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stmt.String(), "FROM students") {
		t.Errorf("sql = %s", stmt)
	}
}

func TestValueOnEntityTable(t *testing.T) {
	s, _ := sys(t)
	// "instructors Grace Lovelace": value on the entity's own table works.
	stmt, err := s.Translate("instructors Grace Lovelace")
	if err != nil {
		t.Fatal(err)
	}
	sql := stmt.String()
	if !strings.Contains(sql, "instructors.name = 'Grace Lovelace'") {
		t.Errorf("sql = %s", sql)
	}
}

func TestCrossTableValueSilentlyDropped(t *testing.T) {
	s, _ := sys(t)
	// "students Computer Science": the value lives on departments, which
	// the keyword system cannot join, so it degrades to a bare listing.
	stmt, err := s.Translate("students Computer Science")
	if err != nil {
		t.Fatal(err)
	}
	sql := stmt.String()
	if strings.Contains(sql, "departments") {
		t.Errorf("keyword baseline must not join: %s", sql)
	}
	if strings.Contains(sql, "WHERE") {
		t.Errorf("cross-table condition should be dropped: %s", sql)
	}
}

func TestEntityFromValueOnly(t *testing.T) {
	s, _ := sys(t)
	stmt, err := s.Translate("Grace Lovelace")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stmt.String(), "FROM instructors") &&
		!strings.Contains(stmt.String(), "FROM students") {
		t.Errorf("sql = %s", stmt)
	}
}

func TestNoKeywordsFails(t *testing.T) {
	s, _ := sys(t)
	if _, err := s.Translate("the quick brown fox"); err == nil {
		t.Error("expected failure for unrecognized keywords")
	}
}

func TestExecutesEndToEnd(t *testing.T) {
	db := dataset.University(1)
	idx := semindex.Build(db, semindex.DefaultOptions())
	s := New(idx)
	stmt, err := s.Translate("list departments")
	if err != nil {
		t.Fatal(err)
	}
	res, err := exec.Query(db.Snapshot(), stmt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Errorf("rows = %d", len(res.Rows))
	}
}

func TestCannotAggregate(t *testing.T) {
	s, _ := sys(t)
	stmt, err := s.Translate("how many students")
	// The phrase still contains the keyword "students", so the system
	// answers — but with a listing, not a count (the classic early-
	// system failure mode T1/T6 measure).
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(stmt.String(), "COUNT") {
		t.Errorf("keyword system should not aggregate: %s", stmt)
	}
}
