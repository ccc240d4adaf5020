// Persistence shows the disk-oriented form of the index: R*-tree nodes
// serialised one-per-4096-byte-page into a checksummed page file, built
// once and reopened for querying — the storage layout the paper's
// "I/O cost = nodes visited" metric models.
//
//	go run ./examples/persistence
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"

	"nwcq"
)

func main() {
	dir, err := os.MkdirTemp("", "nwcq-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "places.nwcq")

	rng := rand.New(rand.NewSource(3))
	points := make([]nwcq.Point, 30000)
	for i := range points {
		points[i] = nwcq.Point{X: rng.Float64() * 10000, Y: rng.Float64() * 10000, ID: uint64(i)}
	}

	// Build on disk.
	built, err := nwcq.BuildPaged(points, path, nwcq.WithBulkLoad())
	if err != nil {
		log.Fatal(err)
	}
	w := built.PageStats().Writes
	if err := built.Close(); err != nil {
		log.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("built %s: %d points, %d page writes, %.1f MiB on disk\n",
		filepath.Base(path), len(points), w, float64(info.Size())/(1<<20))

	// Reopen and query.
	idx, err := nwcq.OpenPaged(path)
	if err != nil {
		log.Fatal(err)
	}
	defer idx.Close()
	fmt.Printf("reopened: %d points, tree height %d\n", idx.Len(), idx.TreeHeight())

	res, err := idx.NWC(nwcq.Query{X: 2500, Y: 7500, Length: 150, Width: 150, N: 6})
	if err != nil {
		log.Fatal(err)
	}
	if !res.Found {
		fmt.Println("no qualified window")
		return
	}
	fmt.Printf("nearest 6-object cluster: dist %.1f, %d node visits\n",
		res.Dist, res.Stats.NodeVisits)
	ps := idx.PageStats()
	fmt.Printf("physical I/O: %d page reads, %d node-cache hits\n", ps.Reads, ps.CacheHits)

	gridB, iwpB := idx.StorageOverheadBytes()
	fmt.Printf("optimisation storage: density grid %.0f KiB, IWP pointers %.0f KiB\n",
		float64(gridB)/1024, float64(iwpB)/1024)
}
