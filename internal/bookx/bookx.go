// Package bookx implements CourseRank's Book Exchange (Figure 2): the
// marketplace that grew out of the §2.2 bookstore anecdote. Textbooks
// themselves are volunteer-reported into the catalog; here students post
// buy and sell listings against those books and the exchange matches
// compatible pairs (sell price within the buyer's budget, best price
// first).
package bookx

import (
	"fmt"
	"sort"

	"courserank/internal/catalog"
	"courserank/internal/relation"
)

// Side distinguishes listing directions.
type Side string

// Listing sides.
const (
	Buy  Side = "buy"
	Sell Side = "sell"
)

// Listing is one open buy or sell order for a textbook. For buys, Price
// is the maximum the buyer will pay; for sells, the asking price.
type Listing struct {
	ID     int64
	BookID int64
	SuID   int64
	Side   Side
	Price  float64
	Active bool
}

// Match pairs a buy listing with a compatible sell listing.
type Match struct {
	Buy  Listing
	Sell Listing
}

// Service manages the exchange tables.
type Service struct {
	db  *relation.DB
	cat *catalog.Store
}

// Setup creates the listing table.
func Setup(db *relation.DB, cat *catalog.Store) (*Service, error) {
	listings := relation.MustTable("BookListings",
		relation.MustSchema(
			relation.NotNullCol("ListingID", relation.TypeInt),
			relation.NotNullCol("BookID", relation.TypeInt),
			relation.NotNullCol("SuID", relation.TypeInt),
			relation.NotNullCol("Side", relation.TypeString),
			relation.NotNullCol("Price", relation.TypeFloat),
			relation.NotNullCol("Active", relation.TypeBool),
		), relation.WithPrimaryKey("ListingID"), relation.WithAutoIncrement("ListingID"), relation.WithIndex("BookID"))
	if _, err := db.Ensure(listings); err != nil {
		return nil, err
	}
	return &Service{db: db, cat: cat}, nil
}

// Post creates a listing and returns its id.
func (s *Service) Post(l Listing) (int64, error) {
	if l.Side != Buy && l.Side != Sell {
		return 0, fmt.Errorf("bookx: side must be buy or sell")
	}
	if l.Price < 0 {
		return 0, fmt.Errorf("bookx: negative price")
	}
	row, err := s.db.MustTable("BookListings").InsertGet(relation.Row{nil, l.BookID, l.SuID, string(l.Side), l.Price, true})
	if err != nil {
		return 0, err
	}
	return row[0].(int64), nil
}

func listingFromRow(r relation.Row) Listing {
	return Listing{
		ID: r[0].(int64), BookID: r[1].(int64), SuID: r[2].(int64),
		Side: Side(r[3].(string)), Price: r[4].(float64), Active: r[5].(bool),
	}
}

// Active returns a book's open listings.
func (s *Service) Active(bookID int64) []Listing {
	var out []Listing
	for _, r := range s.db.MustTable("BookListings").Lookup("BookID", bookID) {
		l := listingFromRow(r)
		if l.Active {
			out = append(out, l)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// MatchBook proposes matches for one book: every active buy is paired
// with the cheapest compatible active sell, each sell used at most once.
func (s *Service) MatchBook(bookID int64) []Match {
	var buys, sells []Listing
	for _, l := range s.Active(bookID) {
		if l.Side == Buy {
			buys = append(buys, l)
		} else {
			sells = append(sells, l)
		}
	}
	// Highest-budget buyers choose first; cheapest sells go first.
	sort.Slice(buys, func(a, b int) bool {
		if buys[a].Price != buys[b].Price {
			return buys[a].Price > buys[b].Price
		}
		return buys[a].ID < buys[b].ID
	})
	sort.Slice(sells, func(a, b int) bool {
		if sells[a].Price != sells[b].Price {
			return sells[a].Price < sells[b].Price
		}
		return sells[a].ID < sells[b].ID
	})
	used := make([]bool, len(sells))
	var out []Match
	for _, b := range buys {
		for i, sl := range sells {
			if used[i] || sl.Price > b.Price || sl.SuID == b.SuID {
				continue
			}
			used[i] = true
			out = append(out, Match{Buy: b, Sell: sl})
			break
		}
	}
	return out
}

// Close deactivates a listing (sold, bought, or withdrawn).
func (s *Service) Close(listingID int64) error {
	n, err := s.db.MustTable("BookListings").UpdateWhere(
		func(r relation.Row) bool { return r[0] == listingID },
		func(r relation.Row) relation.Row { r[5] = false; return r })
	if err != nil {
		return err
	}
	if n == 0 {
		return fmt.Errorf("bookx: no listing %d", listingID)
	}
	return nil
}

// Settle executes a match atomically-enough for a single-process store:
// both listings close together.
func (s *Service) Settle(m Match) error {
	if err := s.Close(m.Buy.ID); err != nil {
		return err
	}
	return s.Close(m.Sell.ID)
}

// ForCourse lists matches across all of a course's textbooks.
func (s *Service) ForCourse(courseID int64) []Match {
	var out []Match
	for _, b := range s.cat.Textbooks(courseID) {
		out = append(out, s.MatchBook(b.ID)...)
	}
	return out
}
