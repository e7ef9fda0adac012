package dataset

import (
	"fmt"

	"repro/internal/schema"
	"repro/internal/store"
)

// UniversitySchema returns the university domain schema with its
// natural-language synonyms.
func UniversitySchema() *schema.Schema {
	return schema.MustNew("university", []*schema.Table{
		{
			Name:       "departments",
			PrimaryKey: "dept_id",
			Synonyms:   []string{"department", "dept", "faculty", "school"},
			Columns: []schema.Column{
				{Name: "dept_id", Type: schema.Int},
				{Name: "name", Type: schema.Text, NameLike: true},
				{Name: "building", Type: schema.Text, NameLike: true, Synonyms: []string{"hall", "location"}},
				{Name: "budget", Type: schema.Float, Synonyms: []string{"funds", "funding"}},
			},
		},
		{
			Name:       "instructors",
			PrimaryKey: "id",
			Synonyms:   []string{"instructor", "professor", "teacher", "lecturer"},
			Columns: []schema.Column{
				{Name: "id", Type: schema.Int},
				{Name: "name", Type: schema.Text, NameLike: true},
				{Name: "dept_id", Type: schema.Int},
				{Name: "salary", Type: schema.Float, Synonyms: []string{"pay", "wage", "earnings", "compensation"}},
				{Name: "title", Type: schema.Text, Synonyms: []string{"rank", "position"}},
			},
		},
		{
			Name:       "students",
			PrimaryKey: "id",
			Synonyms:   []string{"student", "pupil", "undergrad", "undergraduate"},
			Columns: []schema.Column{
				{Name: "id", Type: schema.Int},
				{Name: "name", Type: schema.Text, NameLike: true},
				{Name: "dept_id", Type: schema.Int},
				{Name: "year", Type: schema.Int, Synonyms: []string{"class year"}},
				{Name: "gpa", Type: schema.Float, Synonyms: []string{"grade point average", "average grade"}},
			},
		},
		{
			Name:       "courses",
			PrimaryKey: "course_id",
			Synonyms:   []string{"course", "class", "subject"},
			Columns: []schema.Column{
				{Name: "course_id", Type: schema.Int},
				{Name: "title", Type: schema.Text, NameLike: true, Synonyms: []string{"name"}},
				{Name: "dept_id", Type: schema.Int},
				{Name: "credits", Type: schema.Int, Synonyms: []string{"credit hours", "units"}},
				{Name: "instructor_id", Type: schema.Int},
			},
		},
		{
			Name:     "enrollments",
			Synonyms: []string{"enrollment", "registration", "enrolment"},
			Columns: []schema.Column{
				{Name: "student_id", Type: schema.Int},
				{Name: "course_id", Type: schema.Int},
				{Name: "grade", Type: schema.Text, Synonyms: []string{"mark", "score"}},
			},
		},
	}, []schema.ForeignKey{
		{Table: "instructors", Column: "dept_id", RefTable: "departments", RefColumn: "dept_id"},
		{Table: "students", Column: "dept_id", RefTable: "departments", RefColumn: "dept_id"},
		{Table: "courses", Column: "dept_id", RefTable: "departments", RefColumn: "dept_id"},
		{Table: "courses", Column: "instructor_id", RefTable: "instructors", RefColumn: "id"},
		{Table: "enrollments", Column: "student_id", RefTable: "students", RefColumn: "id"},
		{Table: "enrollments", Column: "course_id", RefTable: "courses", RefColumn: "course_id"},
	})
}

var uniDepartments = []struct {
	name     string
	building string
	budget   float64
}{
	{"Computer Science", "Watson Hall", 2500000},
	{"Mathematics", "Gauss Building", 1400000},
	{"Physics", "Curie Hall", 1900000},
	{"History", "Clio Hall", 700000},
	{"Biology", "Darwin Building", 1600000},
	{"Economics", "Smith Hall", 1100000},
}

var uniTitles = []string{"Assistant Professor", "Associate Professor", "Professor", "Lecturer"}

var uniCourseWords = []string{
	"Introduction to", "Advanced", "Topics in", "Foundations of",
	"Applied", "Theoretical",
}

var uniCourseSubjects = map[string][]string{
	"Computer Science": {"Algorithms", "Databases", "Operating Systems", "Compilers", "Networks", "Artificial Intelligence"},
	"Mathematics":      {"Calculus", "Linear Algebra", "Probability", "Topology", "Number Theory", "Analysis"},
	"Physics":          {"Mechanics", "Electromagnetism", "Quantum Physics", "Thermodynamics", "Optics", "Relativity"},
	"History":          {"Ancient Greece", "Roman Empire", "Medieval Europe", "Modern Asia", "World Wars", "Renaissance"},
	"Biology":          {"Genetics", "Ecology", "Microbiology", "Evolution", "Botany", "Zoology"},
	"Economics":        {"Microeconomics", "Macroeconomics", "Econometrics", "Game Theory", "Trade", "Finance"},
}

var uniGrades = []string{"A", "A", "B", "B", "B", "C", "C", "D", "F"}

// University builds the university database. Row counts grow linearly
// with scale (scale 1: 6 departments, 24 instructors, 120 students,
// 36 courses, ~360 enrollments).
func University(scale int) *store.DB {
	scale = mustPositive(scale)
	db := store.NewDB(UniversitySchema())
	ld := newLoader(db)
	r := rng(42)

	for i, d := range uniDepartments {
		ld.add("departments",
			store.Int(int64(i+1)), store.Text(d.name), store.Text(d.building), store.Float(d.budget))
	}

	nInstructors := 24 * scale
	for i := 0; i < nInstructors; i++ {
		dept := int64(i%len(uniDepartments)) + 1
		// Salaries are unique (2357 is coprime with 60000) so
		// superlative questions have tie-free gold answers.
		salary := 45000 + float64((i*2357)%60000)
		title := uniTitles[r.Intn(len(uniTitles))]
		ld.add("instructors",
			store.Int(int64(i+1)), store.Text(personName(i)), store.Int(dept),
			store.Float(salary), store.Text(title))
	}

	// Department sizes are skewed so "the department with the most
	// students" has a unique answer.
	deptCut := []int{30, 55, 75, 90, 105, 120}
	nStudents := 120 * scale
	for i := 0; i < nStudents; i++ {
		slot := i % 120
		dept := int64(len(uniDepartments))
		for di, cut := range deptCut {
			if slot < cut {
				dept = int64(di + 1)
				break
			}
		}
		year := int64(1 + r.Intn(4))
		var gpa store.Value
		if i%40 == 13 {
			gpa = store.Null() // a few unreported GPAs keep NULL paths honest
		} else {
			// Unique-ish GPAs (7 is coprime with 201) avoid superlative ties.
			gpa = store.Float(2.0 + float64((i*7)%201)/100.0)
		}
		ld.add("students",
			store.Int(int64(i+1)), store.Text(personName(i+500)), store.Int(dept),
			store.Int(year), gpa)
	}

	nCoursesPerDept := 6 * scale
	courseID := 0
	for di, d := range uniDepartments {
		subjects := uniCourseSubjects[d.name]
		for c := 0; c < nCoursesPerDept; c++ {
			courseID++
			title := subjects[c%len(subjects)]
			if c >= len(subjects) {
				title = fmt.Sprintf("%s %s", uniCourseWords[c%len(uniCourseWords)], title)
			}
			credits := int64(2 + r.Intn(3))
			// Assign an instructor from the same department.
			instr := int64(di+1) + int64(r.Intn(nInstructors/len(uniDepartments)))*int64(len(uniDepartments))
			ld.add("courses",
				store.Int(int64(courseID)), store.Text(title), store.Int(int64(di+1)),
				store.Int(credits), store.Int(instr))
		}
	}

	nEnrollments := 3 * nStudents
	for i := 0; i < nEnrollments; i++ {
		sid := int64(1 + r.Intn(nStudents))
		cid := int64(1 + r.Intn(courseID))
		grade := uniGrades[r.Intn(len(uniGrades))]
		ld.add("enrollments", store.Int(sid), store.Int(cid), store.Text(grade))
	}

	ld.flush()
	return db
}
