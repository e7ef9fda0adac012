package sql

import (
	"strings"
	"testing"

	"repro/internal/store"
)

func TestParseMinimal(t *testing.T) {
	s, err := Parse("SELECT * FROM students")
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Items) != 1 || !s.Items[0].Star {
		t.Errorf("items = %+v", s.Items)
	}
	if len(s.From) != 1 || s.From[0].Table != "students" {
		t.Errorf("from = %+v", s.From)
	}
	if s.Limit != -1 || s.Where != nil {
		t.Errorf("unexpected clauses: %+v", s)
	}
}

func TestParseFullClauseSet(t *testing.T) {
	src := "SELECT DISTINCT d.name, AVG(i.salary) AS avg_sal " +
		"FROM instructors i, departments d " +
		"WHERE i.dept_id = d.dept_id AND i.salary > 50000 " +
		"GROUP BY d.name HAVING AVG(i.salary) >= 60000 " +
		"ORDER BY avg_sal DESC, d.name LIMIT 5"
	s, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Distinct {
		t.Error("DISTINCT lost")
	}
	if len(s.Items) != 2 || s.Items[1].Alias != "avg_sal" {
		t.Errorf("items = %+v", s.Items)
	}
	if len(s.From) != 2 || s.From[0].Alias != "i" || s.From[0].Name() != "i" {
		t.Errorf("from = %+v", s.From)
	}
	if len(s.GroupBy) != 1 || s.Having == nil {
		t.Error("group/having lost")
	}
	if len(s.OrderBy) != 2 || !s.OrderBy[0].Desc || s.OrderBy[1].Desc {
		t.Errorf("orderby = %+v", s.OrderBy)
	}
	if s.Limit != 5 {
		t.Errorf("limit = %d", s.Limit)
	}
}

func TestParsePrecedence(t *testing.T) {
	s := MustParse("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3")
	or, ok := s.Where.(*BinaryExpr)
	if !ok || or.Op != OpOr {
		t.Fatalf("root = %v", s.Where)
	}
	and, ok := or.R.(*BinaryExpr)
	if !ok || and.Op != OpAnd {
		t.Fatalf("AND did not bind tighter: %v", s.Where)
	}
}

func TestParseArithmeticPrecedence(t *testing.T) {
	s := MustParse("SELECT * FROM t WHERE a + b * 2 > 10")
	cmp := s.Where.(*BinaryExpr)
	if cmp.Op != OpGt {
		t.Fatalf("root op = %v", cmp.Op)
	}
	add := cmp.L.(*BinaryExpr)
	if add.Op != OpAdd {
		t.Fatalf("expected +, got %v", add.Op)
	}
	if mul := add.R.(*BinaryExpr); mul.Op != OpMul {
		t.Fatalf("* did not bind tighter")
	}
}

func TestParseNotAndNegation(t *testing.T) {
	s := MustParse("SELECT * FROM t WHERE NOT a = 1 AND b = -2")
	and := s.Where.(*BinaryExpr)
	if _, ok := and.L.(*NotExpr); !ok {
		t.Errorf("NOT lost: %v", and.L)
	}
	cmp := and.R.(*BinaryExpr)
	if _, ok := cmp.R.(*NegExpr); !ok {
		t.Errorf("unary minus lost: %v", cmp.R)
	}
}

func TestParseInList(t *testing.T) {
	s := MustParse("SELECT * FROM t WHERE x IN (1, 2, 3)")
	in := s.Where.(*InExpr)
	if len(in.List) != 3 || in.Sub != nil || in.Negated {
		t.Errorf("in = %+v", in)
	}
	s = MustParse("SELECT * FROM t WHERE x NOT IN ('a', 'b')")
	in = s.Where.(*InExpr)
	if !in.Negated || len(in.List) != 2 {
		t.Errorf("not in = %+v", in)
	}
}

func TestParseInSubquery(t *testing.T) {
	s := MustParse("SELECT name FROM students WHERE id IN (SELECT student_id FROM enrollments WHERE grade = 'A')")
	in := s.Where.(*InExpr)
	if in.Sub == nil || len(in.Sub.From) != 1 || in.Sub.From[0].Table != "enrollments" {
		t.Errorf("subquery = %+v", in.Sub)
	}
}

func TestParseExists(t *testing.T) {
	s := MustParse("SELECT * FROM t WHERE EXISTS (SELECT * FROM u WHERE u.id = t.id)")
	if _, ok := s.Where.(*ExistsExpr); !ok {
		t.Errorf("where = %v", s.Where)
	}
	s = MustParse("SELECT * FROM t WHERE NOT EXISTS (SELECT * FROM u)")
	not, ok := s.Where.(*NotExpr)
	if !ok {
		t.Fatalf("where = %v", s.Where)
	}
	if _, ok := not.X.(*ExistsExpr); !ok {
		t.Errorf("inner = %v", not.X)
	}
}

func TestParseScalarSubquery(t *testing.T) {
	s := MustParse("SELECT * FROM t WHERE salary > (SELECT AVG(salary) FROM t)")
	cmp := s.Where.(*BinaryExpr)
	if _, ok := cmp.R.(*SubqueryExpr); !ok {
		t.Errorf("rhs = %v", cmp.R)
	}
}

func TestParseBetweenLikeIsNull(t *testing.T) {
	s := MustParse("SELECT * FROM t WHERE a BETWEEN 1 AND 10")
	if b := s.Where.(*BetweenExpr); b.Negated {
		t.Error("unexpected negation")
	}
	s = MustParse("SELECT * FROM t WHERE a NOT BETWEEN 1 AND 10")
	if b := s.Where.(*BetweenExpr); !b.Negated {
		t.Error("negation lost")
	}
	s = MustParse("SELECT * FROM t WHERE name LIKE 'A%'")
	if l := s.Where.(*LikeExpr); l.Negated {
		t.Error("unexpected negation")
	}
	s = MustParse("SELECT * FROM t WHERE name IS NOT NULL")
	if i := s.Where.(*IsNullExpr); !i.Negated {
		t.Error("IS NOT NULL lost")
	}
}

func TestParseAggregates(t *testing.T) {
	s := MustParse("SELECT COUNT(*), COUNT(DISTINCT dept_id), MAX(salary) FROM instructors")
	c := s.Items[0].Expr.(*FuncCall)
	if !c.Star || c.Name != "COUNT" {
		t.Errorf("count(*) = %+v", c)
	}
	d := s.Items[1].Expr.(*FuncCall)
	if !d.Distinct {
		t.Errorf("count(distinct) = %+v", d)
	}
}

func TestParseStringEscapes(t *testing.T) {
	s := MustParse("SELECT * FROM t WHERE name = 'O''Brien'")
	cmp := s.Where.(*BinaryExpr)
	lit := cmp.R.(Literal)
	if lit.Val.Str() != "O'Brien" {
		t.Errorf("got %q", lit.Val.Str())
	}
}

func TestParseCaseInsensitiveKeywords(t *testing.T) {
	s, err := Parse("select name from Students where GPA > 3")
	if err != nil {
		t.Fatal(err)
	}
	if s.From[0].Table != "students" {
		t.Errorf("table = %q (identifiers lower-cased)", s.From[0].Table)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT FROM t",
		"SELECT * FROM",
		"SELECT * WHERE x = 1",
		"SELECT * FROM t WHERE",
		"SELECT * FROM t WHERE x ==",
		"SELECT * FROM t LIMIT abc",
		"SELECT * FROM t GROUP x",
		"SELECT * FROM t WHERE x IN (",
		"SELECT * FROM t WHERE name = 'unterminated",
		"SELECT nosuchfunc(x) FROM t",
		"SELECT SUM(*) FROM t",
		"SELECT * FROM t extra garbage here",
		"SELECT * FROM t WHERE x ! 1",
		"SELECT * FROM t WHERE x NOT 5",
		"SELECT * FROM café",
		"SELECT 0 FROM \xde",
		"SELECT \xc3\xa9t\xc3\xa9 FROM t",
		"SELECT a FROM t WHERE b\xe2\x80\x8b = 1",
		"SELECT a FROM t WHERE \xe9 = 1",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestPrintedFormsReadable(t *testing.T) {
	s := MustParse("SELECT name FROM t WHERE a = 1 AND b = 'x' ORDER BY name")
	got := s.String()
	want := "SELECT name FROM t WHERE ((a = 1) AND (b = 'x')) ORDER BY name"
	if got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestBuilderHelpers(t *testing.T) {
	if And() != nil {
		t.Error("And() should be nil")
	}
	one := Cmp(OpEq, Col("t", "a"), Number(1))
	if And(nil, one, nil) != one {
		t.Error("And should drop nils")
	}
	both := And(one, Cmp(OpGt, Col("t", "b"), Number(2)))
	b, ok := both.(*BinaryExpr)
	if !ok || b.Op != OpAnd {
		t.Errorf("And(two) = %v", both)
	}
	if Number(3).Val.Kind() != store.KindInt {
		t.Error("Number(3) should be INT")
	}
	if Number(3.5).Val.Kind() != store.KindFloat {
		t.Error("Number(3.5) should be FLOAT")
	}
	if Str("x").Val.Str() != "x" {
		t.Error("Str wrong")
	}
}

func TestBinOpStrings(t *testing.T) {
	pairs := map[BinOp]string{
		OpEq: "=", OpNe: "<>", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
		OpAnd: "AND", OpOr: "OR", OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/",
	}
	for op, want := range pairs {
		if op.String() != want {
			t.Errorf("%d.String() = %q, want %q", op, op.String(), want)
		}
	}
	if !OpLe.IsComparison() || OpAnd.IsComparison() || OpAdd.IsComparison() {
		t.Error("IsComparison wrong")
	}
}

func TestLiteralPrintingEscapes(t *testing.T) {
	l := Str("it's")
	if l.String() != "'it''s'" {
		t.Errorf("escaped literal = %q", l.String())
	}
	if Lit(store.Null()).String() != "NULL" {
		t.Error("NULL literal wrong")
	}
}

func TestTrailingSemicolonAccepted(t *testing.T) {
	if _, err := Parse("SELECT * FROM t;"); err != nil {
		t.Errorf("trailing semicolon rejected: %v", err)
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse should panic on bad SQL")
		}
	}()
	MustParse("not sql")
}

func TestParseBareAlias(t *testing.T) {
	s := MustParse("SELECT salary pay FROM instructors")
	if s.Items[0].Alias != "pay" {
		t.Errorf("bare alias = %q", s.Items[0].Alias)
	}
}

func TestStringContainsNoDoubleSpaces(t *testing.T) {
	s := MustParse("SELECT a, b FROM t WHERE a > 1 GROUP BY a HAVING COUNT(*) > 2 ORDER BY a LIMIT 3")
	if strings.Contains(s.String(), "  ") {
		t.Errorf("double space in %q", s.String())
	}
}

func BenchmarkParse(b *testing.B) {
	src := "SELECT d.name, AVG(i.salary) FROM instructors i, departments d " +
		"WHERE i.dept_id = d.dept_id GROUP BY d.name ORDER BY AVG(i.salary) DESC LIMIT 5"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}
