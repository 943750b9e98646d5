// Package community models CourseRank's closed community (§2.1):
// authenticated users of three distinct constituent types (students,
// faculty, staff) validated against the university directory, session
// management, privacy opt-outs, and the meaningful-incentive point
// scheme of §2.2 (modeled on Yahoo! Answers scoring).
package community

import (
	"fmt"
	"sort"
	"strconv"
	"sync"

	"courserank/internal/relation"
)

// Role is a constituent type. CourseRank — unlike single-user-type
// social sites — distinguishes three (§2.1 "Constituents").
type Role string

// The three constituencies.
const (
	RoleStudent Role = "student"
	RoleFaculty Role = "faculty"
	RoleStaff   Role = "staff"
)

// Valid reports whether the role is one of the three constituencies.
func (r Role) Valid() bool {
	return r == RoleStudent || r == RoleFaculty || r == RoleStaff
}

// DirectoryEntry is one person in the (simulated) university directory.
// CourseRank has "access to official user names on the Stanford network
// and can therefore validate that a user is a student or a professor or
// staff" (§2.1 "Restricted Access"); this registry plays that role.
type DirectoryEntry struct {
	Username  string
	Name      string
	Role      Role
	DepID     string // faculty/staff department, or student major
	ClassYear int64  // students: expected graduation year
	Undergrad bool
}

// Directory is the university identity provider. Only people listed
// here may register — the mechanism that keeps the community closed.
type Directory struct {
	mu sync.RWMutex
	m  map[string]DirectoryEntry
}

// NewDirectory returns an empty directory.
func NewDirectory() *Directory { return &Directory{m: make(map[string]DirectoryEntry)} }

// Add registers a person with the university.
func (d *Directory) Add(e DirectoryEntry) error {
	if e.Username == "" {
		return fmt.Errorf("community: directory entry needs a username")
	}
	if !e.Role.Valid() {
		return fmt.Errorf("community: bad role %q", e.Role)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, dup := d.m[e.Username]; dup {
		return fmt.Errorf("community: username %q already in directory", e.Username)
	}
	d.m[e.Username] = e
	return nil
}

// Lookup finds a directory entry.
func (d *Directory) Lookup(username string) (DirectoryEntry, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	e, ok := d.m[username]
	return e, ok
}

// Len returns the directory size (the paper's ~14,000 students plus
// faculty and staff).
func (d *Directory) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.m)
}

// CountRole returns how many directory entries have the given role —
// e.g. the university's total student population.
func (d *Directory) CountRole(role Role) int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	n := 0
	for _, e := range d.m {
		if e.Role == role {
			n++
		}
	}
	return n
}

// User is a registered CourseRank account.
type User struct {
	ID        int64
	Username  string
	Name      string
	Role      Role
	DepID     string
	ClassYear int64
	Undergrad bool
	// SharePlans controls whether other students can see this student's
	// planned courses — on by default with an opt-out, the outcome of
	// the §2.2 "privacy can be shared" anecdote.
	SharePlans bool
}

// Point values of the §2.2 incentive scheme (Yahoo! Answers scoring),
// plus CourseRank-specific contribution rewards.
const (
	PointsBestAnswer     = 10
	PointsDailyLogin     = 1
	PointsVoteBecameBest = 1
	PointsComment        = 2
	PointsRating         = 1
	PointsReportBook     = 2
)

// Service manages accounts, sessions and the point ledger.
type Service struct {
	dir *Directory
	db  *relation.DB

	mu        sync.Mutex
	sessions  map[string]int64 // token → user id
	lastLogin map[int64]int64  // user id → last login day awarded
	nextToken int64
}

// Setup creates the community tables and returns a service bound to the
// directory.
func Setup(db *relation.DB, dir *Directory) (*Service, error) {
	users := relation.MustTable("Users",
		relation.MustSchema(
			relation.NotNullCol("UserID", relation.TypeInt),
			relation.NotNullCol("Username", relation.TypeString),
			relation.NotNullCol("Name", relation.TypeString),
			relation.NotNullCol("Role", relation.TypeString),
			relation.Col("DepID", relation.TypeString),
			relation.Col("ClassYear", relation.TypeInt),
			relation.NotNullCol("Undergrad", relation.TypeBool),
			relation.NotNullCol("SharePlans", relation.TypeBool),
		), relation.WithPrimaryKey("UserID"), relation.WithAutoIncrement("UserID"), relation.WithIndex("Username"))
	points := relation.MustTable("PointEvents",
		relation.MustSchema(
			relation.NotNullCol("EventID", relation.TypeInt),
			relation.NotNullCol("UserID", relation.TypeInt),
			relation.NotNullCol("Kind", relation.TypeString),
			relation.NotNullCol("Points", relation.TypeInt),
			relation.Col("Note", relation.TypeString),
		), relation.WithPrimaryKey("EventID"), relation.WithAutoIncrement("EventID"), relation.WithIndex("UserID"))
	for _, t := range []*relation.Table{users, points} {
		if _, err := db.Ensure(t); err != nil {
			return nil, err
		}
	}
	return &Service{
		dir:       dir,
		db:        db,
		sessions:  make(map[string]int64),
		lastLogin: make(map[int64]int64),
	}, nil
}

// Register creates an account for a directory-validated username. The
// account inherits its role from the directory — users cannot claim to
// be faculty.
func (s *Service) Register(username string) (User, error) {
	e, ok := s.dir.Lookup(username)
	if !ok {
		return User{}, fmt.Errorf("community: %q is not in the university directory", username)
	}
	if _, exists := s.UserByUsername(username); exists {
		return User{}, fmt.Errorf("community: %q is already registered", username)
	}
	var classYear relation.Value
	if e.ClassYear != 0 {
		classYear = e.ClassYear
	}
	row, err := s.db.MustTable("Users").InsertGet(relation.Row{
		nil, e.Username, e.Name, string(e.Role), e.DepID, classYear, e.Undergrad, true,
	})
	if err != nil {
		return User{}, err
	}
	return userFromRow(row), nil
}

func userFromRow(r relation.Row) User {
	var dep string
	if r[4] != nil {
		dep = r[4].(string)
	}
	var cy int64
	if r[5] != nil {
		cy = r[5].(int64)
	}
	return User{
		ID: r[0].(int64), Username: r[1].(string), Name: r[2].(string),
		Role: Role(r[3].(string)), DepID: dep, ClassYear: cy,
		Undergrad: r[6].(bool), SharePlans: r[7].(bool),
	}
}

// User fetches an account by id.
func (s *Service) User(id int64) (User, bool) {
	r, ok := s.db.MustTable("Users").Get(id)
	if !ok {
		return User{}, false
	}
	return userFromRow(r), true
}

// UserByUsername fetches an account by username.
func (s *Service) UserByUsername(username string) (User, bool) {
	rows := s.db.MustTable("Users").Lookup("Username", username)
	if len(rows) == 0 {
		return User{}, false
	}
	return userFromRow(rows[0]), true
}

// UserCount returns the number of registered accounts — the paper's
// "more than 9,000 Stanford students".
func (s *Service) UserCount() int { return s.db.MustTable("Users").Len() }

// CountByRole tallies accounts per constituency.
func (s *Service) CountByRole() map[Role]int {
	out := map[Role]int{}
	s.db.MustTable("Users").Scan(func(_ int, r relation.Row) bool {
		out[Role(r[3].(string))]++
		return true
	})
	return out
}

// UndergradCount returns registered undergraduate students (the paper's
// ~6,500 benchmark).
func (s *Service) UndergradCount() int {
	n := 0
	s.db.MustTable("Users").Scan(func(_ int, r relation.Row) bool {
		if r[6].(bool) {
			n++
		}
		return true
	})
	return n
}

// Login authenticates a registered user on the given day (an abstract
// day number) and returns a session token. The first login of each day
// earns the daily point (§2.2).
func (s *Service) Login(username string, day int64) (string, error) {
	u, ok := s.UserByUsername(username)
	if !ok {
		return "", fmt.Errorf("community: %q is not registered", username)
	}
	s.mu.Lock()
	s.nextToken++
	token := "sess-" + strconv.FormatInt(s.nextToken, 10)
	s.sessions[token] = u.ID
	award := s.lastLogin[u.ID] != day
	s.lastLogin[u.ID] = day
	s.mu.Unlock()
	if award {
		if err := s.Award(u.ID, "daily-login", PointsDailyLogin, "login day "+strconv.FormatInt(day, 10)); err != nil {
			return "", err
		}
	}
	return token, nil
}

// Session resolves a token to the logged-in user.
func (s *Service) Session(token string) (User, bool) {
	s.mu.Lock()
	id, ok := s.sessions[token]
	s.mu.Unlock()
	if !ok {
		return User{}, false
	}
	return s.User(id)
}

// Logout invalidates a session token.
func (s *Service) Logout(token string) {
	s.mu.Lock()
	delete(s.sessions, token)
	s.mu.Unlock()
}

// SetSharePlans records the student's plan-sharing choice (§2.2: "one
// can opt out of sharing").
func (s *Service) SetSharePlans(userID int64, share bool) error {
	n, err := s.db.MustTable("Users").UpdateWhere(
		func(r relation.Row) bool { return r[0] == userID },
		func(r relation.Row) relation.Row { r[7] = share; return r })
	if err != nil {
		return err
	}
	if n == 0 {
		return fmt.Errorf("community: no user %d", userID)
	}
	return nil
}

// Award appends a point event to the ledger.
func (s *Service) Award(userID int64, kind string, points int, note string) error {
	if _, ok := s.User(userID); !ok {
		return fmt.Errorf("community: no user %d", userID)
	}
	_, err := s.db.MustTable("PointEvents").Insert(relation.Row{nil, userID, kind, int64(points), note})
	return err
}

// Points sums a user's ledger.
func (s *Service) Points(userID int64) int {
	total := 0
	for _, r := range s.db.MustTable("PointEvents").Lookup("UserID", userID) {
		total += int(r[3].(int64))
	}
	return total
}

// LedgerEntry is one point event for display.
type LedgerEntry struct {
	Kind   string
	Points int
	Note   string
}

// Ledger returns a user's point history in insertion order.
func (s *Service) Ledger(userID int64) []LedgerEntry {
	rows := s.db.MustTable("PointEvents").Lookup("UserID", userID)
	out := make([]LedgerEntry, len(rows))
	for i, r := range rows {
		var note string
		if r[4] != nil {
			note = r[4].(string)
		}
		out[i] = LedgerEntry{Kind: r[2].(string), Points: int(r[3].(int64)), Note: note}
	}
	return out
}

// LeaderboardEntry pairs a user with their point total.
type LeaderboardEntry struct {
	User   User
	Points int
}

// Leaderboard returns the top-k point earners, ties broken by user id.
func (s *Service) Leaderboard(k int) []LeaderboardEntry {
	totals := map[int64]int{}
	s.db.MustTable("PointEvents").Scan(func(_ int, r relation.Row) bool {
		totals[r[1].(int64)] += int(r[3].(int64))
		return true
	})
	out := make([]LeaderboardEntry, 0, len(totals))
	for id, pts := range totals {
		if u, ok := s.User(id); ok {
			out = append(out, LeaderboardEntry{User: u, Points: pts})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Points != out[b].Points {
			return out[a].Points > out[b].Points
		}
		return out[a].User.ID < out[b].User.ID
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}
