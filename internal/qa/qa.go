// Package qa implements CourseRank's Question & Answer forum (Figure 2
// "Q/A") together with the two remedies §2.2 prescribes for its
// cold-start problem: seeding the forum with staff-curated FAQs, and
// routing new questions "to people who are likely to be able to answer
// them" — here, students and faculty with experience in the question's
// department. Best answers and helpful votes feed the community point
// scheme.
package qa

import (
	"fmt"
	"sort"

	"courserank/internal/relation"
)

// Question is one forum question. CourseID and DepID scope it (either
// may be empty/zero for general questions). Seeded marks staff FAQs.
type Question struct {
	ID       int64
	SuID     int64
	Title    string
	Text     string
	CourseID int64
	DepID    string
	Seeded   bool
}

// Answer is one reply to a question.
type Answer struct {
	ID     int64
	QID    int64
	SuID   int64
	Text   string
	Votes  int
	IsBest bool
}

// PointAwarder decouples qa from the community package: the facade
// passes the community service in so best answers and winning votes
// earn points without an import cycle.
type PointAwarder interface {
	Award(userID int64, kind string, points int, note string) error
}

// Point values mirrored from the paper's Yahoo! Answers description.
const (
	pointsBestAnswer     = 10
	pointsVoteBecameBest = 1
)

// Expertise lets the router ask who has experience where; the facade
// implements it over planner enrollments and teaching assignments.
type Expertise interface {
	// ExpertsIn returns user ids with experience in the department,
	// strongest first.
	ExpertsIn(depID string, limit int) []int64
}

// Service manages the forum tables.
type Service struct {
	db     *relation.DB
	points PointAwarder
	expert Expertise
}

// Setup creates the forum tables. points and expert may be nil (no
// point awards, no routing).
func Setup(db *relation.DB, points PointAwarder, expert Expertise) (*Service, error) {
	tables := []*relation.Table{
		relation.MustTable("Questions",
			relation.MustSchema(
				relation.NotNullCol("QID", relation.TypeInt),
				relation.NotNullCol("SuID", relation.TypeInt),
				relation.NotNullCol("Title", relation.TypeString),
				relation.NotNullCol("Text", relation.TypeString),
				relation.Col("CourseID", relation.TypeInt),
				relation.Col("DepID", relation.TypeString),
				relation.NotNullCol("Seeded", relation.TypeBool),
			), relation.WithPrimaryKey("QID"), relation.WithAutoIncrement("QID"), relation.WithIndex("DepID")),
		relation.MustTable("Answers",
			relation.MustSchema(
				relation.NotNullCol("AID", relation.TypeInt),
				relation.NotNullCol("QID", relation.TypeInt),
				relation.NotNullCol("SuID", relation.TypeInt),
				relation.NotNullCol("Text", relation.TypeString),
				relation.NotNullCol("Votes", relation.TypeInt),
				relation.NotNullCol("IsBest", relation.TypeBool),
			), relation.WithPrimaryKey("AID"), relation.WithAutoIncrement("AID"), relation.WithIndex("QID")),
		relation.MustTable("AnswerVotes",
			relation.MustSchema(
				relation.NotNullCol("AID", relation.TypeInt),
				relation.NotNullCol("SuID", relation.TypeInt),
			), relation.WithPrimaryKey("AID", "SuID")),
	}
	for _, t := range tables {
		if _, err := db.Ensure(t); err != nil {
			return nil, err
		}
	}
	return &Service{db: db, points: points, expert: expert}, nil
}

// Ask posts a question and returns its id plus the user ids it was
// routed to for answering.
func (s *Service) Ask(q Question) (int64, []int64, error) {
	if q.Title == "" {
		return 0, nil, fmt.Errorf("qa: question needs a title")
	}
	var courseID, depID relation.Value
	if q.CourseID != 0 {
		courseID = q.CourseID
	}
	if q.DepID != "" {
		depID = q.DepID
	}
	row, err := s.db.MustTable("Questions").InsertGet(relation.Row{
		nil, q.SuID, q.Title, q.Text, courseID, depID, q.Seeded,
	})
	if err != nil {
		return 0, nil, err
	}
	id := row[0].(int64)
	var routed []int64
	if s.expert != nil && q.DepID != "" {
		for _, uid := range s.expert.ExpertsIn(q.DepID, 5) {
			if uid != q.SuID {
				routed = append(routed, uid)
			}
		}
	}
	return id, routed, nil
}

// SeedFAQ posts a staff-curated FAQ with its canonical answer — the
// §2.2 plan for bootstrapping forum traffic ("seed the forum with
// frequently asked questions developed in conjunction with department
// managers").
func (s *Service) SeedFAQ(staffID int64, depID, title, question, answer string) (int64, error) {
	qid, _, err := s.Ask(Question{SuID: staffID, Title: title, Text: question, DepID: depID, Seeded: true})
	if err != nil {
		return 0, err
	}
	aid, err := s.Answer(Answer{QID: qid, SuID: staffID, Text: answer})
	if err != nil {
		return 0, err
	}
	// Canonical FAQ answers are pre-marked best without point awards.
	_, err = s.db.MustTable("Answers").UpdateWhere(
		func(r relation.Row) bool { return r[0] == aid },
		func(r relation.Row) relation.Row { r[5] = true; return r })
	return qid, err
}

// Question fetches a question by id.
func (s *Service) Question(qid int64) (Question, bool) {
	r, ok := s.db.MustTable("Questions").Get(qid)
	if !ok {
		return Question{}, false
	}
	return questionFromRow(r), true
}

func questionFromRow(r relation.Row) Question {
	var courseID int64
	if r[4] != nil {
		courseID = r[4].(int64)
	}
	var depID string
	if r[5] != nil {
		depID = r[5].(string)
	}
	return Question{
		ID: r[0].(int64), SuID: r[1].(int64), Title: r[2].(string), Text: r[3].(string),
		CourseID: courseID, DepID: depID, Seeded: r[6].(bool),
	}
}

// ByDepartment lists a department's questions, seeded FAQs first.
func (s *Service) ByDepartment(depID string) []Question {
	rows := s.db.MustTable("Questions").Lookup("DepID", depID)
	out := make([]Question, len(rows))
	for i, r := range rows {
		out[i] = questionFromRow(r)
	}
	sort.SliceStable(out, func(a, b int) bool {
		if out[a].Seeded != out[b].Seeded {
			return out[a].Seeded
		}
		return out[a].ID < out[b].ID
	})
	return out
}

// QuestionCount returns the forum size.
func (s *Service) QuestionCount() int { return s.db.MustTable("Questions").Len() }

// Answer posts an answer and returns its id.
func (s *Service) Answer(a Answer) (int64, error) {
	if _, ok := s.Question(a.QID); !ok {
		return 0, fmt.Errorf("qa: no question %d", a.QID)
	}
	if a.Text == "" {
		return 0, fmt.Errorf("qa: empty answer")
	}
	row, err := s.db.MustTable("Answers").InsertGet(relation.Row{nil, a.QID, a.SuID, a.Text, int64(0), false})
	if err != nil {
		return 0, err
	}
	return row[0].(int64), nil
}

func answerFromRow(r relation.Row) Answer {
	return Answer{
		ID: r[0].(int64), QID: r[1].(int64), SuID: r[2].(int64),
		Text: r[3].(string), Votes: int(r[4].(int64)), IsBest: r[5].(bool),
	}
}

// Answers lists a question's answers, best first then by votes.
func (s *Service) Answers(qid int64) []Answer {
	rows := s.db.MustTable("Answers").Lookup("QID", qid)
	out := make([]Answer, len(rows))
	for i, r := range rows {
		out[i] = answerFromRow(r)
	}
	sort.SliceStable(out, func(a, b int) bool {
		if out[a].IsBest != out[b].IsBest {
			return out[a].IsBest
		}
		if out[a].Votes != out[b].Votes {
			return out[a].Votes > out[b].Votes
		}
		return out[a].ID < out[b].ID
	})
	return out
}

// Vote records one user's up-vote on an answer (idempotent per user).
func (s *Service) Vote(aid, voterID int64) error {
	if _, err := s.db.MustTable("AnswerVotes").Insert(relation.Row{aid, voterID}); err != nil {
		return fmt.Errorf("qa: already voted or bad answer: %w", err)
	}
	_, err := s.db.MustTable("Answers").UpdateWhere(
		func(r relation.Row) bool { return r[0] == aid },
		func(r relation.Row) relation.Row { r[4] = r[4].(int64) + 1; return r })
	return err
}

// MarkBest marks an answer as the asker's best answer, awarding the
// §2.2 points: 10 to the answerer and 1 to each voter who picked it.
// Only the question's asker may mark, and only once per question.
func (s *Service) MarkBest(qid, aid, byUser int64) error {
	q, ok := s.Question(qid)
	if !ok {
		return fmt.Errorf("qa: no question %d", qid)
	}
	if q.SuID != byUser {
		return fmt.Errorf("qa: only the asker may mark the best answer")
	}
	for _, a := range s.Answers(qid) {
		if a.IsBest {
			return fmt.Errorf("qa: question %d already has a best answer", qid)
		}
	}
	var target Answer
	found := false
	for _, a := range s.Answers(qid) {
		if a.ID == aid {
			target = a
			found = true
			break
		}
	}
	if !found {
		return fmt.Errorf("qa: answer %d does not belong to question %d", aid, qid)
	}
	if _, err := s.db.MustTable("Answers").UpdateWhere(
		func(r relation.Row) bool { return r[0] == aid },
		func(r relation.Row) relation.Row { r[5] = true; return r }); err != nil {
		return err
	}
	if s.points != nil {
		if err := s.points.Award(target.SuID, "best-answer", pointsBestAnswer, q.Title); err != nil {
			return err
		}
		for _, r := range s.db.MustTable("AnswerVotes").Rows() {
			if r[0] == aid {
				if err := s.points.Award(r[1].(int64), "voted-best", pointsVoteBecameBest, q.Title); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
