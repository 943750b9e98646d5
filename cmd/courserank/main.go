// Command courserank runs a CourseRank instance: it generates a
// synthetic deployment and serves the closed-community JSON API.
//
// Usage:
//
//	courserank [-scale tiny|small|paper] [-addr :8080] [-demo]
//	           [-durable DIR] [-fsync sync|async] [-pprof ADDR]
//
// With -demo it skips the server and walks one student session through
// the headline features (search → cloud → refine → recommend → plan)
// on stdout.
//
// With -durable DIR the tables live in DIR (pages.db + wal.log): every
// write is journaled through the write-ahead log before it is applied,
// and a restart against the same DIR recovers the exact pre-crash state
// instead of regenerating. -fsync picks the commit policy: "sync"
// (default) fsyncs every commit, "async" trades the last flush interval
// for group-commit-free latency.
//
// The server runs with query-level observability on: per-statement
// latency histograms at /api/queries, the slow-query log at
// /api/slowlog, and EXPLAIN ANALYZE for a whole strategy at
// /api/analyze/{strategy}. With -pprof ADDR a second listener serves
// net/http/pprof (e.g. -pprof localhost:6060, then
// /debug/pprof/profile) off the main request path.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof"
	"time"

	"courserank/internal/core"
	"courserank/internal/datagen"
	"courserank/internal/relation"
	"courserank/internal/render"
	"courserank/internal/server"
	"courserank/internal/wal"
)

func main() {
	scale := flag.String("scale", "small", "deployment scale: tiny, small, paper")
	addr := flag.String("addr", ":8080", "listen address")
	demo := flag.Bool("demo", false, "print a demo session instead of serving")
	durable := flag.String("durable", "", "directory for durable storage (empty = in-memory)")
	fsync := flag.String("fsync", "sync", "durable commit policy: sync, async")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (empty = off)")
	flag.Parse()

	var cfg datagen.Config
	switch *scale {
	case "tiny":
		cfg = datagen.Tiny()
	case "small":
		cfg = datagen.Small()
	case "paper":
		cfg = datagen.PaperScale()
	default:
		log.Fatalf("unknown scale %q", *scale)
	}

	t0 := time.Now()
	var site *core.Site
	var err error
	if *durable != "" {
		var policy wal.SyncPolicy
		switch *fsync {
		case "sync":
			policy = wal.SyncAlways
		case "async":
			policy = wal.SyncNone
		default:
			log.Fatalf("unknown fsync policy %q", *fsync)
		}
		log.Printf("opening durable store in %s (fsync=%s)...", *durable, *fsync)
		site, err = core.NewDurableSite(*durable, relation.DurableOptions{Sync: policy})
	} else {
		site, err = core.NewSite()
	}
	if err != nil {
		log.Fatal(err)
	}
	defer site.Close()

	var man *datagen.Manifest
	if site.Scale().Courses > 0 {
		// A durable reopen recovered the previous run's tables; serve
		// them as-is rather than regenerating on top. Search and aux
		// indexes live in memory, so rebuild them over the recovered
		// rows.
		log.Printf("recovered existing deployment from %s", *durable)
		if err := site.BuildSearchIndex(); err != nil {
			log.Fatal(err)
		}
		if err := site.BuildAuxIndexes(); err != nil {
			log.Fatal(err)
		}
	} else {
		log.Printf("generating %s-scale CourseRank (seed %d)...", *scale, cfg.Seed)
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
			log.Fatal(err)
		}
	}
	s := site.Scale()
	log.Printf("ready in %v: %d courses, %d comments, %d ratings, %d users",
		time.Since(t0).Round(time.Millisecond), s.Courses, s.Comments, s.Ratings, s.Users)

	if *demo {
		runDemo(site, man)
		return
	}
	site.EnableObservability()
	if *pprofAddr != "" {
		// pprof rides the default mux (the blank net/http/pprof import)
		// on its own listener, so profiling never contends with the API
		// listener's accept loop.
		go func() {
			log.Printf("pprof on http://%s/debug/pprof/", *pprofAddr)
			log.Fatal(http.ListenAndServe(*pprofAddr, nil))
		}()
	}
	log.Printf("serving on %s (try /api/health, /api/queries, /api/analyze/{strategy})", *addr)
	log.Fatal(http.ListenAndServe(*addr, server.New(site)))
}

// runDemo walks the paper's interactions on stdout.
func runDemo(site *core.Site, man *datagen.Manifest) {
	res, err := site.SearchCourses("american")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(render.SearchResults(site, res, 5))
	cl, _ := site.CourseCloud(res, 20)
	fmt.Println("Course Cloud:")
	fmt.Println(render.Cloud(cl))

	ref, _ := site.RefineSearch(res, "african american")
	fmt.Printf("\nclicked \"african american\" → %d courses\n\n", ref.Total())

	fmt.Println("FlexRecs: related-courses for \"Introduction to Programming\"")
	rec, err := site.Strategies.Run(site.Flex, "related-courses", map[string]any{
		"title": "Introduction to Programming", "k": 5,
	})
	if err != nil {
		log.Fatal(err)
	}
	ti := rec.MustCol("Title")
	for i := range rec.Rows {
		fmt.Printf("  %d. %v\n", i+1, rec.Rows[i][ti])
	}

	if man != nil {
		fmt.Println()
		fmt.Println(render.Plan(site, man.SampleStudent))
	}
}
