package comments

import (
	"fmt"
	"sort"

	"courserank/internal/relation"
)

// Faculty participation (§2 "Interaction for Constituents"): instructors
// can respond to student comments on their courses and attach notes to
// their own course pages — "updates to the official course description
// and pointers to other useful materials that may help students decide
// if the course is for them".

// Response is an instructor's reply to a student comment.
type Response struct {
	ID           int64
	CommentID    int64
	InstructorID int64
	Text         string
}

// CourseNote is an instructor-authored addendum to a course page.
type CourseNote struct {
	ID           int64
	CourseID     int64
	InstructorID int64
	Text         string
}

// SetupFaculty creates the faculty-participation tables. Call once,
// after Setup, on the same database.
func (s *Store) SetupFaculty() error {
	tables := []*relation.Table{
		relation.MustTable("CommentResponses",
			relation.MustSchema(
				relation.NotNullCol("ResponseID", relation.TypeInt),
				relation.NotNullCol("CommentID", relation.TypeInt),
				relation.NotNullCol("InstructorID", relation.TypeInt),
				relation.NotNullCol("Text", relation.TypeString),
			), relation.WithPrimaryKey("ResponseID"), relation.WithAutoIncrement("ResponseID"), relation.WithIndex("CommentID")),
		relation.MustTable("CourseNotes",
			relation.MustSchema(
				relation.NotNullCol("NoteID", relation.TypeInt),
				relation.NotNullCol("CourseID", relation.TypeInt),
				relation.NotNullCol("InstructorID", relation.TypeInt),
				relation.NotNullCol("Text", relation.TypeString),
			), relation.WithPrimaryKey("NoteID"), relation.WithAutoIncrement("NoteID"), relation.WithIndex("CourseID")),
	}
	for _, t := range tables {
		if _, err := s.db.Ensure(t); err != nil {
			return err
		}
	}
	return nil
}

// Respond records an instructor's reply to a comment.
func (s *Store) Respond(commentID, instructorID int64, text string) (int64, error) {
	if text == "" {
		return 0, fmt.Errorf("comments: empty response")
	}
	if _, ok := s.db.MustTable("Comments").Get(commentID); !ok {
		return 0, fmt.Errorf("comments: no comment %d", commentID)
	}
	row, err := s.db.MustTable("CommentResponses").InsertGet(relation.Row{nil, commentID, instructorID, text})
	if err != nil {
		return 0, err
	}
	return row[0].(int64), nil
}

// Responses lists the instructor replies to a comment, oldest first.
func (s *Store) Responses(commentID int64) []Response {
	rows := s.db.MustTable("CommentResponses").Lookup("CommentID", commentID)
	out := make([]Response, len(rows))
	for i, r := range rows {
		out[i] = Response{ID: r[0].(int64), CommentID: r[1].(int64), InstructorID: r[2].(int64), Text: r[3].(string)}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// AddNote attaches an instructor note to a course page.
func (s *Store) AddNote(courseID, instructorID int64, text string) (int64, error) {
	if text == "" {
		return 0, fmt.Errorf("comments: empty note")
	}
	row, err := s.db.MustTable("CourseNotes").InsertGet(relation.Row{nil, courseID, instructorID, text})
	if err != nil {
		return 0, err
	}
	return row[0].(int64), nil
}

// Notes lists a course's instructor notes, oldest first.
func (s *Store) Notes(courseID int64) []CourseNote {
	rows := s.db.MustTable("CourseNotes").Lookup("CourseID", courseID)
	out := make([]CourseNote, len(rows))
	for i, r := range rows {
		out[i] = CourseNote{ID: r[0].(int64), CourseID: r[1].(int64), InstructorID: r[2].(int64), Text: r[3].(string)}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}
