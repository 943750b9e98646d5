package main

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"net/http"
	"sort"
	"time"

	"courserank/internal/catalog"
	"courserank/internal/core"
	"courserank/internal/datagen"
	"courserank/internal/relation"
	"courserank/internal/server"
	"courserank/internal/textindex"
	"courserank/internal/wal"
)

// durableOptions is the review workload's storage policy: every commit
// waits for its own fsync (or rides a concurrent one), which is
// courserank's default -fsync sync.
var durableOptions = relation.DurableOptions{Sync: wal.SyncAlways}

// deployment is one generated CourseRank site served on a loopback
// listener, plus the universe the request generator draws from.
type deployment struct {
	site *core.Site
	dir  string // durable directory, "" for an in-memory site
	u    *Universe
	srv  *http.Server
	base string
	done chan error
}

// deploy builds the datagen.Small deployment the way cmd/courserank
// does — in memory, or bulk-loaded into a durable directory — turns
// observability on, reads the generator's universe out of the data and
// starts serving server.New(site) on 127.0.0.1.
func deploy(durable bool, dir string) (*deployment, error) {
	cfg := datagen.Small()
	var site *core.Site
	var err error
	if durable {
		site, err = core.NewDurableSite(dir, durableOptions)
	} else {
		site, err = core.NewSite()
	}
	if err != nil {
		return nil, fmt.Errorf("open site: %w", err)
	}
	var man *datagen.Manifest
	populate := func() error {
		man, err = datagen.Populate(site, cfg)
		return err
	}
	if site.Durable != nil {
		// Bulk-load outside the journal, then checkpoint once: the
		// initial corpus lands in the page file, not the WAL.
		err = site.Durable.Bulk(populate)
	} else {
		err = populate()
	}
	if err != nil {
		site.Close()
		return nil, fmt.Errorf("populate: %w", err)
	}
	site.EnableObservability()
	d := &deployment{site: site, dir: dir}
	if d.u, err = newUniverse(site, man, cfg); err != nil {
		site.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		site.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	d.srv = &http.Server{Handler: server.New(site)}
	d.base = "http://" + ln.Addr().String()
	d.done = make(chan error, 1)
	go func() { d.done <- d.srv.Serve(ln) }()
	return d, nil
}

// close shuts the listener down, waits for the serve loop to return and
// closes the site, draining a durable site's WAL so a reopen recovers
// every acknowledged write.
func (d *deployment) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	if serr := <-d.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	d.site.Close()
	return err
}

// newUniverse reads what the generator draws from out of the generated
// data and logs every drawable student in.
func newUniverse(site *core.Site, man *datagen.Manifest, cfg datagen.Config) (*Universe, error) {
	u := &Universe{
		Titles:    map[int64]string{},
		Themed:    man.ThemedCourses,
		AfricanAm: man.AfricanAmericanCourses,
		taken:     map[pair]bool{},
	}
	for _, y := range cfg.Years {
		if y+2 > u.WriteYear {
			u.WriteYear = y + 2
		}
	}

	// Students with a rated comment: every recommend strategy returns
	// rows for them.
	rated := map[int64]bool{}
	ratedDeps := map[string]bool{}
	cm := site.DB.MustTable("Comments")
	csch := cm.Schema()
	csu, cco, crt := csch.MustIndex("SuID"), csch.MustIndex("CourseID"), csch.MustIndex("Rating")
	cm.Scan(func(_ int, r relation.Row) bool {
		if r[crt] == nil {
			return true
		}
		rated[r[csu].(int64)] = true
		if c, ok := site.Catalog.Course(r[cco].(int64)); ok {
			ratedDeps[c.DepID] = true
		}
		return true
	})
	users := site.DB.MustTable("Users")
	usch := users.Schema()
	uid, uname, urole := usch.MustIndex("UserID"), usch.MustIndex("Username"), usch.MustIndex("Role")
	users.Scan(func(_ int, r relation.Row) bool {
		if id := r[uid].(int64); r[urole].(string) == "student" && rated[id] {
			u.Students = append(u.Students, Student{ID: id, Username: r[uname].(string)})
		}
		return true
	})
	sort.Slice(u.Students, func(i, j int) bool { return u.Students[i].ID < u.Students[j].ID })
	for i := range u.Students {
		tok, err := site.Community.Login(u.Students[i].Username, 1)
		if err != nil {
			return nil, fmt.Errorf("login %s: %w", u.Students[i].Username, err)
		}
		u.Students[i].Token = tok
	}
	u.Deps = sortedKeys(ratedDeps)

	ix, err := site.SearchIndex()
	if err != nil {
		return nil, err
	}
	terms := map[string]bool{}
	site.Catalog.EachCourse(func(c catalog.Course) bool {
		u.Titles[c.ID] = c.Title
		for _, tok := range textindex.Tokenize(c.Title) {
			terms[tok] = true
		}
		return true
	})
	u.Courses = sortedKeys(u.Titles)
	for _, id := range u.Courses {
		if len(site.Catalog.Offerings(id)) > 0 {
			u.Offered = append(u.Offered, id)
		}
	}
	// Search terms are the subject words of titles. Words that name a
	// course's format rather than its topic ("introduction", "seminar",
	// "advanced", …) each match a large share of the catalog; they are
	// left out, as users search for topics.
	for term := range terms {
		if df := ix.Text().DocFreq(term); df > 0 && df <= len(u.Courses)/formatWordShare {
			u.Vocab = append(u.Vocab, term)
		}
	}
	// Query popularity is independent of how many courses a term
	// matches: the order is a hash of the term, so the popular head
	// mixes narrow and broad queries and result sizes vary.
	sort.Slice(u.Vocab, func(i, j int) bool {
		a, b := termRank(u.Vocab[i]), termRank(u.Vocab[j])
		if a != b {
			return a < b
		}
		return u.Vocab[i] < u.Vocab[j]
	})

	for _, name := range []string{"Enrollments", "Ratings"} {
		t := site.DB.MustTable(name)
		sch := t.Schema()
		su, co := sch.MustIndex("SuID"), sch.MustIndex("CourseID")
		t.Scan(func(_ int, r relation.Row) bool {
			u.taken[pair{r[su].(int64), r[co].(int64)}] = true
			return true
		})
	}
	if len(u.Students) == 0 || len(u.Courses) == 0 || len(u.Deps) == 0 || len(u.Vocab) == 0 || len(u.Offered) == 0 {
		return nil, fmt.Errorf("generated data leaves nothing to draw from")
	}
	return u, nil
}

// formatWordShare: a title word matching more than one course in this
// many is a format word, not a search topic.
const formatWordShare = 4

// termRank is a term's fixed place in the query popularity order.
func termRank(term string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(term))
	return h.Sum32()
}

// warmViews builds every registered materialized view once, so no
// measured request pays for a view's first build.
func (d *deployment) warmViews() error {
	for _, v := range d.site.Views.Views() {
		if _, _, err := v.Get(); err != nil {
			return fmt.Errorf("warm view %s: %w", v.Name(), err)
		}
	}
	return nil
}
