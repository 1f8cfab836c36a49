// Command datagen generates a synthetic workload and writes it to disk in
// a simple self-describing gob container, plus optional CSV exports for
// inspection with external tooling.
//
// Usage:
//
//	datagen -dataset porto -scale 0.2 -out porto.gob [-csv porto_dir]
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"subtraj"
	"subtraj/internal/setup"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("datagen: ")
	var (
		dataset = flag.String("dataset", "beijing", "workload: "+strings.Join(setup.Datasets, "|"))
		scale   = flag.Float64("scale", 0.1, "dataset scale factor")
		out     = flag.String("out", "workload.gob", "output gob file")
		csvDir  = flag.String("csv", "", "optional directory for CSV exports")
	)
	flag.Parse()

	cfg, err := setup.Config(*dataset, *scale)
	if err != nil {
		log.Fatal(err)
	}
	w := subtraj.Generate(cfg)

	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	if err := w.Save(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s: %d vertices, %d edges, %d trajectories\n",
		*out, w.Graph.NumVertices(), w.Graph.NumEdges(), w.Data.Len())

	// Round-trip check: what we wrote must load back.
	rf, err := os.Open(*out)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := subtraj.LoadWorkload(rf); err != nil {
		log.Fatalf("self-check failed: %v", err)
	}
	rf.Close()

	if *csvDir != "" {
		if err := exportCSV(*csvDir, w); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote CSV exports under %s\n", *csvDir)
	}
}

func exportCSV(dir string, wl *subtraj.Workload) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	writeAll := func(name string, header []string, rows func(w *csv.Writer) error) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		defer f.Close()
		w := csv.NewWriter(f)
		if err := w.Write(header); err != nil {
			return err
		}
		if err := rows(w); err != nil {
			return err
		}
		w.Flush()
		return w.Error()
	}
	if err := writeAll("vertices.csv", []string{"id", "x", "y"}, func(w *csv.Writer) error {
		for i, p := range wl.Graph.Coords() {
			if err := w.Write([]string{strconv.Itoa(i),
				strconv.FormatFloat(p.X, 'f', 2, 64),
				strconv.FormatFloat(p.Y, 'f', 2, 64)}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if err := writeAll("edges.csv", []string{"id", "from", "to", "weight"}, func(w *csv.Writer) error {
		for _, e := range wl.Graph.Edges() {
			if err := w.Write([]string{strconv.Itoa(int(e.ID)),
				strconv.Itoa(int(e.From)), strconv.Itoa(int(e.To)),
				strconv.FormatFloat(e.Weight, 'f', 2, 64)}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	return writeAll("trajectories.csv", []string{"id", "pos", "vertex", "time"}, func(w *csv.Writer) error {
		for id := range wl.Data.Trajs {
			tr := &wl.Data.Trajs[id]
			for pos, v := range tr.Path {
				t := ""
				if pos < len(tr.Times) {
					t = strconv.FormatFloat(tr.Times[pos], 'f', 1, 64)
				}
				if err := w.Write([]string{strconv.Itoa(id), strconv.Itoa(pos), strconv.Itoa(int(v)), t}); err != nil {
					return err
				}
			}
		}
		return nil
	})
}
