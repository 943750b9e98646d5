// Package core assembles CourseRank itself: the social system of
// Figure 2. It wires every subsystem — data access (relational store +
// SQL engine), keyword search over course entities, Course Cloud,
// FlexRecs, Planner, Requirement Tracker, Statistics/Eval, Q/A, Book
// Exchange — behind one Site facade, the public API that the examples,
// the HTTP server, and the experiment harness all use.
package core

import (
	"fmt"
	"sort"
	"strings"

	"courserank/internal/advisor"
	"courserank/internal/analytics"
	"courserank/internal/bookx"
	"courserank/internal/catalog"
	"courserank/internal/cloud"
	"courserank/internal/comments"
	"courserank/internal/community"
	"courserank/internal/flexrecs"
	"courserank/internal/matview"
	"courserank/internal/obs"
	"courserank/internal/planner"
	"courserank/internal/qa"
	"courserank/internal/recommend"
	"courserank/internal/relation"
	"courserank/internal/requirements"
	"courserank/internal/search"
	"courserank/internal/sqlmini"
	"courserank/internal/stats"
)

// Site is a running CourseRank instance. All subsystems share one
// relational database, mirroring the deployed system's single MySQL
// back end.
type Site struct {
	DB        *relation.DB
	SQL       *sqlmini.Engine
	Directory *community.Directory

	Catalog      *catalog.Store
	Community    *community.Service
	Comments     *comments.Store
	Planner      *planner.Store
	Requirements *requirements.Registry
	Stats        *stats.Service
	QA           *qa.Service
	Books        *bookx.Service

	Flex       *flexrecs.Engine
	Strategies *flexrecs.Registry
	Baseline   *recommend.Engine
	Advisor    *advisor.Advisor
	Analytics  *analytics.Service
	Views      *matview.Registry

	// Durable is the write-ahead-logged storage backend when the site
	// was opened with NewDurableSite; nil for an ephemeral site.
	Durable *relation.DurableStore

	// Obs is the query-level observability collector when
	// EnableObservability was called; nil (and costless) otherwise.
	Obs *obs.Collector

	index           *search.Index
	instructorIndex *search.Index
	bookIndex       *search.Index
}

// NewSite creates an empty CourseRank instance with every subsystem
// wired and the default FlexRecs strategies registered. One SQL engine
// — and therefore one shared plan cache — backs the facade, the
// FlexRecs compiler and the baseline recommenders, so any statement
// text any subsystem repeats plans exactly once.
func NewSite() (*Site, error) {
	return newSite(relation.NewDB())
}

// NewDurableSite opens (or recovers) a CourseRank instance whose
// database lives at dir behind the pager + WAL storage engine: every
// mutation any subsystem makes is journaled before it is acknowledged,
// and reopening after a crash replays the committed tail onto the last
// checkpoint. The subsystem Setups adopt recovered tables via
// DB.Ensure, so opening an existing directory yields the same wired
// site over the surviving data. Close the site to drain the WAL.
func NewDurableSite(dir string, opts relation.DurableOptions) (*Site, error) {
	db, store, err := relation.OpenDurable(dir, opts)
	if err != nil {
		return nil, err
	}
	s, err := newSite(db)
	if err != nil {
		store.Close()
		return nil, err
	}
	s.Durable = store
	return s, nil
}

func newSite(db *relation.DB) (*Site, error) {
	dir := community.NewDirectory()
	sql := sqlmini.New(db)
	views := matview.NewRegistry(db, matviewWorkers)
	s := &Site{
		DB:           db,
		SQL:          sql,
		Directory:    dir,
		Requirements: requirements.NewRegistry(),
		Flex:         flexrecs.NewEngineOver(sql),
		Strategies:   flexrecs.NewRegistry(),
		Baseline:     recommend.NewOver(db, sql),
		Views:        views,
	}
	// One materialization layer across the stack: FlexRecs Materialize
	// steps, the baseline recommenders' ratings view and the site's feed
	// views all register here and share the background refresher pool
	// (started below, after every fallible setup step, so failed
	// constructions leak no goroutines).
	s.Flex.UseMatviews(views)
	s.Baseline.UseViews(views)
	var err error
	if s.Catalog, err = catalog.Setup(db); err != nil {
		return nil, err
	}
	if s.Community, err = community.Setup(db, dir); err != nil {
		return nil, err
	}
	if s.Comments, err = comments.Setup(db); err != nil {
		return nil, err
	}
	if err := s.Comments.SetupFaculty(); err != nil {
		return nil, err
	}
	if s.Planner, err = planner.Setup(db, s.Catalog); err != nil {
		return nil, err
	}
	if s.Stats, err = stats.Setup(db, s.Catalog); err != nil {
		return nil, err
	}
	if s.QA, err = qa.Setup(db, s.Community, expertise{s}); err != nil {
		return nil, err
	}
	if s.Books, err = bookx.Setup(db, s.Catalog); err != nil {
		return nil, err
	}
	s.Advisor = advisor.New(db, s.Catalog, s.Planner, s.Requirements)
	s.Analytics = analytics.New(db)
	if err := s.registerDefaultStrategies(); err != nil {
		return nil, err
	}
	if err := s.registerFeedViews(); err != nil {
		return nil, err
	}
	views.Start()
	return s, nil
}

// Close releases the site's background resources: the materialized-view
// refresher pool stops and in-flight builds drain, then the durable
// store (if any) is drained — outstanding WAL records synced, dirty
// pages flushed — so a reopened site recovers everything acknowledged.
// Tests defer it.
func (s *Site) Close() {
	s.Views.Close()
	if s.Durable != nil {
		s.Durable.Close()
	}
}

// CourseEntityDef is the search-entity definition for courses (paper
// §3.1): a course entity spans its title, bulletin description, all
// student comments, its instructors and its department — with weights
// answering "should a title match score like a comment match?".
func CourseEntityDef() search.EntityDef {
	return search.EntityDef{
		Name: "course",
		Fields: []search.FieldSpec{
			{Name: "title", Weight: 4},
			{Name: "description", Weight: 2},
			{Name: "comments", Weight: 1},
			{Name: "instructors", Weight: 1.5},
			{Name: "department", Weight: 1},
		},
	}
}

// BuildSearchIndex (re)builds the course-entity index from the current
// catalog and comments. Call it after bulk loading; queries before the
// first build return errors.
func (s *Site) BuildSearchIndex() error {
	b, err := search.NewBuilder(CourseEntityDef())
	if err != nil {
		return err
	}
	var buildErr error
	s.Catalog.EachCourse(func(c catalog.Course) bool {
		if err := b.Append(c.ID, "title", c.Title); err != nil {
			buildErr = err
			return false
		}
		if c.Description != "" {
			if err := b.Append(c.ID, "description", c.Description); err != nil {
				buildErr = err
				return false
			}
		}
		if d, ok := s.Catalog.Department(c.DepID); ok {
			if err := b.Append(c.ID, "department", d.Name); err != nil {
				buildErr = err
				return false
			}
		}
		seen := map[int64]bool{}
		for _, o := range s.Catalog.Offerings(c.ID) {
			if o.InstructorID == 0 || seen[o.InstructorID] {
				continue
			}
			seen[o.InstructorID] = true
			if in, ok := s.Catalog.Instructor(o.InstructorID); ok {
				if err := b.Append(c.ID, "instructors", in.Name); err != nil {
					buildErr = err
					return false
				}
			}
		}
		return true
	})
	if buildErr != nil {
		return buildErr
	}
	// Comments attach to their course entity; scanning the comments
	// table directly avoids one pass per course.
	tbl := s.DB.MustTable("Comments")
	sch := tbl.Schema()
	cid, txt := sch.MustIndex("CourseID"), sch.MustIndex("Text")
	tbl.Scan(func(_ int, r relation.Row) bool {
		buildErr = b.Append(r[cid].(int64), "comments", r[txt].(string))
		return buildErr == nil
	})
	if buildErr != nil {
		return buildErr
	}
	ix, err := b.Build()
	if err != nil {
		return err
	}
	s.index = ix
	return nil
}

// SearchIndex returns the built course index, or an error before
// BuildSearchIndex has run.
func (s *Site) SearchIndex() (*search.Index, error) {
	if s.index == nil {
		return nil, fmt.Errorf("core: search index not built; call BuildSearchIndex after loading data")
	}
	return s.index, nil
}

// SearchCourses runs a keyword search over course entities.
func (s *Site) SearchCourses(query string) (*search.Results, error) {
	ix, err := s.SearchIndex()
	if err != nil {
		return nil, err
	}
	return ix.Search(query), nil
}

// RefineSearch narrows previous results by a clicked cloud term
// (Figure 3 → Figure 4).
func (s *Site) RefineSearch(prev *search.Results, term string) (*search.Results, error) {
	ix, err := s.SearchIndex()
	if err != nil {
		return nil, err
	}
	return ix.Refine(prev, term), nil
}

// CourseCloud computes the data cloud summarizing a result set,
// excluding the query's own terms.
func (s *Site) CourseCloud(res *search.Results, maxTerms int) (*cloud.Cloud, error) {
	ix, err := s.SearchIndex()
	if err != nil {
		return nil, err
	}
	return cloud.Compute(ix.Text(), res.IDs(), cloud.Options{
		MaxTerms: maxTerms,
		Exclude:  res.Query.Terms(),
	}), nil
}

// RequirementsCheck evaluates a program against a transcript of taken
// course ids, using the catalog for unit counts.
func (s *Site) RequirementsCheck(p requirements.Program, taken []int64) requirements.Report {
	return requirements.Check(p, taken, s.Catalog)
}

// expertise implements qa.Expertise: people with experience in a
// department are its faculty plus the students with the most completed
// courses there.
type expertise struct{ s *Site }

// ExpertsIn returns user ids ranked by departmental experience.
func (e expertise) ExpertsIn(depID string, limit int) []int64 {
	type scored struct {
		id int64
		n  int
	}
	counts := map[int64]int{}
	// Students: completed courses in the department.
	enroll := e.s.DB.MustTable("Enrollments")
	sch := enroll.Schema()
	su, co, pl := sch.MustIndex("SuID"), sch.MustIndex("CourseID"), sch.MustIndex("Planned")
	enroll.Scan(func(_ int, r relation.Row) bool {
		if r[pl].(bool) {
			return true
		}
		c, ok := e.s.Catalog.Course(r[co].(int64))
		if !ok || c.DepID != depID {
			return true
		}
		counts[r[su].(int64)]++
		return true
	})
	// Faculty in the department outrank students.
	users := e.s.DB.MustTable("Users")
	usch := users.Schema()
	uid, role, dep := usch.MustIndex("UserID"), usch.MustIndex("Role"), usch.MustIndex("DepID")
	users.Scan(func(_ int, r relation.Row) bool {
		if r[role].(string) == string(community.RoleFaculty) && r[dep] != nil && r[dep].(string) == depID {
			counts[r[uid].(int64)] += 1000
		}
		return true
	})
	list := make([]scored, 0, len(counts))
	for id, n := range counts {
		list = append(list, scored{id: id, n: n})
	}
	sort.Slice(list, func(a, b int) bool {
		if list[a].n != list[b].n {
			return list[a].n > list[b].n
		}
		return list[a].id < list[b].id
	})
	if limit > 0 && len(list) > limit {
		list = list[:limit]
	}
	out := make([]int64, len(list))
	for i, s := range list {
		out[i] = s.id
	}
	return out
}

// Scale reports the live deployment statistics that §2 of the paper
// quotes for CourseRank.
type Scale struct {
	Courses           int
	Comments          int
	Ratings           int
	Users             int
	Undergrads        int
	DirectorySize     int
	DirectoryStudents int // the university's student population (~14,000)
	Departments       int
	Questions         int
}

// Scale gathers the current instance's scale statistics.
func (s *Site) Scale() Scale {
	return Scale{
		Courses:           s.Catalog.CourseCount(),
		Comments:          s.Comments.Count(),
		Ratings:           s.Comments.RatingCount(),
		Users:             s.Community.UserCount(),
		Undergrads:        s.Community.UndergradCount(),
		DirectorySize:     s.Directory.Len(),
		DirectoryStudents: s.Directory.CountRole(community.RoleStudent),
		Departments:       len(s.Catalog.Departments()),
		Questions:         s.QA.QuestionCount(),
	}
}

// Component describes one Figure-2 box for the architecture experiment.
type Component struct {
	Name string
	Role string
	OK   bool
}

// Components enumerates the Figure 2 architecture with a live health
// check per box.
func (s *Site) Components() []Component {
	searchOK := s.index != nil
	return []Component{
		{Name: "Data Access", Role: "relational store + SQL engine over user and official data", OK: s.DB != nil && s.SQL != nil},
		{Name: "User data", Role: "comments, ratings, plans, listings, points", OK: s.Comments != nil},
		{Name: "Official data", Role: "courses, schedules, instructors, grade distributions", OK: s.Catalog != nil},
		{Name: "Keyword Search", Role: "entity search spanning relations (§3.1)", OK: searchOK},
		{Name: "Course Cloud", Role: "data clouds summarizing search results (§3.1)", OK: searchOK},
		{Name: "FlexRecs", Role: "declarative recommendation workflows (§3.2)", OK: s.Flex != nil && len(s.Strategies.List()) > 0},
		{Name: "Planner", Role: "quarterly schedules, conflicts, GPA (Figure 1)", OK: s.Planner != nil},
		{Name: "Req Tracker", Role: "program requirement checking", OK: s.Requirements != nil},
		{Name: "Statistics", Role: "grade distributions with privacy controls", OK: s.Stats != nil},
		{Name: "Q/A", Role: "forum with FAQ seeding and expert routing", OK: s.QA != nil},
		{Name: "Book Exchange", Role: "volunteer-reported textbooks, buy/sell matching", OK: s.Books != nil},
		{Name: "Eval", Role: "comment accuracy votes and quality ranking", OK: s.Comments != nil},
		{Name: "User Interface", Role: "students / faculty / staff constituents", OK: s.Community != nil},
	}
}

// Table1Row is one row of the paper's Table 1 comparison. The
// CourseRank column is verified live against this instance where a
// check is implementable.
type Table1Row struct {
	Dimension  string
	DB         string
	Web        string
	SocialSite string
	CourseRank string
	Verified   bool
}

// Table1 regenerates the paper's comparison table. Rows whose
// CourseRank claim is mechanically checkable are marked Verified when
// the live instance bears it out.
func (s *Site) Table1() []Table1Row {
	scale := s.Scale()
	roles := s.Community.CountByRole()
	return []Table1Row{
		{"data: control", "centrally controlled", "uncontrolled, highly distributed", "centrally stored", "centrally stored",
			len(s.DB.Names()) > 0},
		{"data: source", "transactional, official", "many providers", "user contributed", "user contributed + official",
			scale.Comments > 0 && scale.Courses > 0},
		{"data: structure", "structured", "unstructured + deep web", "mostly unstructured", "both types",
			s.index != nil},
		{"data: size", "very large", "humongous", "extra large", "large", true},
		{"access", "1 provider - many consumers", "many providers - mass consumers", "users-to-users", "closed community",
			s.Directory.Len() > 0},
		{"users: auth", "authorized", "anyone", "authorized", "authorized", true},
		{"users: identity", "real ids", "anonymous", "fake and multiple ids", "real ids",
			roles[community.RoleStudent]+roles[community.RoleFaculty]+roles[community.RoleStaff] == scale.Users},
		{"users: interests", "very focused interests", "diverse interests (hard to know)", "shared but diverse interests", "community-shaped interests", true},
		{"apps", "financial, telecommunications", "keyword search, browsing", "bookmarking, networking", "university site, corporate site", true},
		{"research", "long-time established, ACID database", "index and search", "little research, home-made solutions", "lots of challenges", true},
	}
}

// registerDefaultStrategies installs the administrator-defined FlexRecs
// strategies (§2.1): the two Figure 5 workflows plus grade-based and
// department-scoped variants showing the personalization axes §3.2
// motivates.
func (s *Site) registerDefaultStrategies() error {
	reg := []flexrecs.Template{
		{
			Name:        "related-courses",
			Description: "Courses offered in a year (or since one, with 'since') whose titles resemble a given course (Figure 5a)",
			Params:      []string{"title", "year", "since", "k"},
			Build: func(p map[string]any) (*flexrecs.Step, error) {
				title, ok := p["title"].(string)
				if !ok {
					return nil, fmt.Errorf("related-courses needs a title")
				}
				return flexrecs.Recommend(
					offeredCourses(p["year"], p["since"]),
					flexrecs.Rel("Courses").Select("Title = ?", title),
					flexrecs.JaccardOn("Title"),
				).Top(intParam(p, "k", 10)), nil
			},
		},
		{
			Name:        "rated-courses",
			Description: "The courses you rated, best first — the per-student history feed",
			Params:      []string{"student", "k"},
			Build: func(p map[string]any) (*flexrecs.Step, error) {
				student, ok := p["student"].(int64)
				if !ok {
					return nil, fmt.Errorf("rated-courses needs a student id")
				}
				// The compiled join probes Comments on the student's id
				// (a handful of rows) against the whole catalog — the
				// shape the planner answers with an index nested-loop
				// join through the Courses primary key.
				return flexrecs.Rel("Comments").
					Select("Comments.SuID = ?", student).
					JoinOn(flexrecs.Rel("Courses"), "Comments.CourseID = Courses.CourseID").
					Project("Courses.CourseID", "Title", "Rating").
					OrderBy("Rating", true).
					Top(intParam(p, "k", 20)), nil
			},
		},
		{
			Name:        "top-rated",
			Description: "The best-rated comments sitewide with their courses, best first — rides the descending ordered-index walk (ORDER BY Rating DESC elided)",
			Params:      []string{"min", "k"},
			Build: func(p map[string]any) (*flexrecs.Step, error) {
				// Compiles to one SELECT whose Rating >= ? range and ORDER
				// BY Rating DESC the planner answers together: a descending
				// walk of the Comments.Rating ordered index, no sort.
				return flexrecs.Rel("Comments").
					Select("Comments.Rating >= ?", floatParam(p, "min", 4.0)).
					JoinOn(flexrecs.Rel("Courses"), "Comments.CourseID = Courses.CourseID").
					Project("Courses.CourseID", "Title", "Rating").
					OrderBy("Rating", true).
					Top(intParam(p, "k", 10)), nil
			},
		},
		{
			Name:        "contemporary-courses",
			Description: "Courses offered within ±band years of a given course's offerings — a band join riding per-row ordered-index range probes",
			Params:      []string{"course", "band", "k"},
			Build: func(p map[string]any) (*flexrecs.Step, error) {
				course, ok := p["course"].(int64)
				if !ok {
					return nil, fmt.Errorf("contemporary-courses needs a course id")
				}
				band := intParam(p, "band", 1)
				// The band width bakes into the ON text (ON clauses carry no
				// placeholders); each width is its own compiled shape.
				on := fmt.Sprintf("b.Year BETWEEN a.Year - %d AND a.Year + %d", band, band)
				return flexrecs.Rel("CourseYears a").
					Select("a.CourseID = ?", course).
					JoinOn(flexrecs.Rel("CourseYears b"), on).
					Select("b.CourseID <> ?", course).
					Project("b.CourseID", "b.Year").
					Top(intParam(p, "k", 50)), nil
			},
		},
		{
			Name:        "cf-courses",
			Description: "Courses ranked by ratings of students similar to you (Figure 5b)",
			Params:      []string{"student", "year", "k", "neighbors"},
			Build: func(p map[string]any) (*flexrecs.Step, error) {
				student, ok := p["student"].(int64)
				if !ok {
					return nil, fmt.Errorf("cf-courses needs a student id")
				}
				ratings := flexrecs.Rel("Comments").Project("SuID", "CourseID", "Rating")
				similar := flexrecs.Recommend(
					ratings.Select("SuID <> ?", student).Extend("SuID", "CourseID", "Rating", "Ratings"),
					ratings.Select("SuID = ?", student).Extend("SuID", "CourseID", "Rating", "Ratings"),
					flexrecs.InvEuclideanOn("Ratings"),
				).Top(intParam(p, "neighbors", 20))
				return flexrecs.Recommend(
					offeredCourses(p["year"], nil),
					similar,
					flexrecs.WeightedAvg("CourseID", "Ratings", "Score"),
				).Top(intParam(p, "k", 10)), nil
			},
		},
		{
			Name:        "grade-peers",
			Description: "Courses taken by students with grade histories like yours (§3 'people with similar grades, as opposed to similar tastes')",
			Params:      []string{"student", "k", "neighbors"},
			Build: func(p map[string]any) (*flexrecs.Step, error) {
				student, ok := p["student"].(int64)
				if !ok {
					return nil, fmt.Errorf("grade-peers needs a student id")
				}
				grades := flexrecs.Rel("EnrollmentPoints")
				similar := flexrecs.Recommend(
					grades.Select("SuID <> ?", student).Extend("SuID", "CourseID", "Points", "Grades"),
					grades.Select("SuID = ?", student).Extend("SuID", "CourseID", "Points", "Grades"),
					flexrecs.InvEuclideanOn("Grades"),
				).Top(intParam(p, "neighbors", 20))
				return flexrecs.Recommend(
					flexrecs.Rel("Courses"),
					similar,
					flexrecs.WeightedAvg("CourseID", "Grades", "Score"),
				).Top(intParam(p, "k", 10)), nil
			},
		},
		{
			Name:        "department-popular",
			Description: "Best-rated courses within one department — the extend over every rating materializes once and is shared by all departments",
			Params:      []string{"dep", "k"},
			Build: func(p map[string]any) (*flexrecs.Step, error) {
				dep, ok := p["dep"].(string)
				if !ok {
					return nil, fmt.Errorf("department-popular needs a department")
				}
				// The reference side — nesting EVERY student's ratings — is
				// the expensive shared prefix of this workflow: it has no
				// personalization parameters, so one materialized result
				// serves every department and every caller until a rating
				// lands (sync mode: refresh-on-read, single-flighted).
				return flexrecs.Recommend(
					flexrecs.Rel("Courses").Select("DepID = ?", dep),
					flexrecs.Rel("Comments").Project("SuID", "CourseID", "Rating").
						Extend("SuID", "CourseID", "Rating", "Ratings").
						Materialize(flexrecs.MatOptions{Name: "ratings-extend"}),
					flexrecs.AvgOf("CourseID", "Ratings"),
				).Top(intParam(p, "k", 10)), nil
			},
		},
		{
			Name:        "hybrid",
			Description: "Blend of title similarity and collaborative filtering (content + CF)",
			Params:      []string{"student", "title", "k"},
			Build: func(p map[string]any) (*flexrecs.Step, error) {
				student, ok := p["student"].(int64)
				if !ok {
					return nil, fmt.Errorf("hybrid needs a student id")
				}
				title, ok := p["title"].(string)
				if !ok {
					return nil, fmt.Errorf("hybrid needs a title")
				}
				content := flexrecs.Recommend(
					flexrecs.Rel("Courses"),
					flexrecs.Rel("Courses").Select("Title = ?", title),
					flexrecs.JaccardOn("Title"),
				).Project("CourseID", "Title", "Score")
				ratings := flexrecs.Rel("Comments").Project("SuID", "CourseID", "Rating")
				similar := flexrecs.Recommend(
					ratings.Select("SuID <> ?", student).Extend("SuID", "CourseID", "Rating", "Ratings"),
					ratings.Select("SuID = ?", student).Extend("SuID", "CourseID", "Rating", "Ratings"),
					flexrecs.InvEuclideanOn("Ratings"),
				).Top(20)
				cf := flexrecs.Recommend(
					flexrecs.Rel("Courses"),
					similar,
					flexrecs.WeightedAvg("CourseID", "Ratings", "Score"),
				).Project("CourseID", "Score")
				// Title similarity is already in [0,1]; CF predictions
				// sit in [0,5], so weight them to comparable ranges.
				return flexrecs.Blend(content, cf, "CourseID", "Score", 1.0, 0.2).
					Top(intParam(p, "k", 10)), nil
			},
		},
	}
	for _, t := range reg {
		if err := s.Strategies.Register(t); err != nil {
			return err
		}
	}
	return nil
}

// offeredCourses scopes the Courses relation to one offering year (an
// equality probe) or to every year since one (a range scan over the
// CourseYears ordered index) when the parameters are supplied. Courses
// carry no Year column in the full catalog schema; the datagen layer
// materializes a CourseYears view for this purpose.
func offeredCourses(year, since any) *flexrecs.Step {
	if year == nil && since == nil {
		return flexrecs.Rel("Courses")
	}
	scoped := flexrecs.Rel("Courses").
		JoinOn(flexrecs.Rel("CourseYears"), "Courses.CourseID = CourseYears.CourseID")
	if year != nil {
		scoped = scoped.Select("CourseYears.Year = ?", year)
	} else {
		scoped = scoped.Select("CourseYears.Year >= ?", since)
	}
	return scoped.Project("Courses.CourseID", "Title", "DepID", "Units")
}

func intParam(p map[string]any, key string, def int) int {
	switch v := p[key].(type) {
	case int:
		return v
	case int64:
		return int(v)
	}
	return def
}

func floatParam(p map[string]any, key string, def float64) float64 {
	switch v := p[key].(type) {
	case float64:
		return v
	case int:
		return float64(v)
	case int64:
		return float64(v)
	}
	return def
}

// RefreshDerived rebuilds the derived tables some strategies depend on:
// EnrollmentPoints (numeric grade points per enrollment, feeding the
// grade-peers strategy's extend) and CourseYears (course → offering
// year). Call after bulk loading or when enrollments change.
func (s *Site) RefreshDerived() error {
	s.DB.Drop("EnrollmentPoints")
	ep := relation.MustTable("EnrollmentPoints",
		relation.MustSchema(
			relation.NotNullCol("SuID", relation.TypeInt),
			relation.NotNullCol("CourseID", relation.TypeInt),
			relation.NotNullCol("Points", relation.TypeFloat),
		), relation.WithIndex("SuID"))
	if err := s.DB.Create(ep); err != nil {
		return err
	}
	enroll := s.DB.MustTable("Enrollments")
	sch := enroll.Schema()
	su, co, gr, pl := sch.MustIndex("SuID"), sch.MustIndex("CourseID"), sch.MustIndex("Grade"), sch.MustIndex("Planned")
	var insErr error
	enroll.Scan(func(_ int, r relation.Row) bool {
		if r[pl].(bool) || r[gr] == nil {
			return true
		}
		pts, ok := catalog.Grade(r[gr].(string)).Points()
		if !ok {
			return true
		}
		_, insErr = ep.Insert(relation.Row{r[su], r[co], pts})
		return insErr == nil
	})
	if insErr != nil {
		return insErr
	}

	s.DB.Drop("CourseYears")
	// The hash index on Year turns the Figure 5(a) year-scoped join into
	// an index probe under the SQL planner; the ordered index covers the
	// "Year >= since" recency scope as a range scan.
	cy := relation.MustTable("CourseYears",
		relation.MustSchema(
			relation.NotNullCol("CourseID", relation.TypeInt),
			relation.NotNullCol("Year", relation.TypeInt),
		), relation.WithPrimaryKey("CourseID", "Year"), relation.WithIndex("Year"), relation.WithIndex("CourseID"),
		relation.WithOrderedIndex("Year"))
	if err := s.DB.Create(cy); err != nil {
		return err
	}
	off := s.DB.MustTable("Offerings")
	osch := off.Schema()
	oc, oy := osch.MustIndex("CourseID"), osch.MustIndex("Year")
	off.Scan(func(_ int, r relation.Row) bool {
		// Duplicate (course, year) pairs collapse via the primary key.
		_, err := cy.Insert(relation.Row{r[oc], r[oy]})
		if err != nil && !strings.Contains(err.Error(), "duplicate") {
			insErr = err
			return false
		}
		return true
	})
	return insErr
}
