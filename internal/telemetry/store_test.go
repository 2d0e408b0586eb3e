package telemetry

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// model is the reference a span tree is checked against: per span, in
// creation order, its children's indexes, counters and attributes.
type model struct {
	spans    []*Span
	kids     [][]int
	counters [][]CounterValue
	attrs    [][]Attr
}

func (m *model) add(s *Span) int {
	m.spans = append(m.spans, s)
	m.kids = append(m.kids, nil)
	m.counters = append(m.counters, nil)
	m.attrs = append(m.attrs, nil)
	return len(m.spans) - 1
}

// check fails unless every span's lists equal the model's.
func (m *model) check(t *testing.T, what string) {
	t.Helper()
	for i, s := range m.spans {
		var kids []*Span
		for _, k := range m.kids[i] {
			kids = append(kids, m.spans[k])
		}
		if !slices.Equal(s.Children, kids) {
			t.Fatalf("%s: span %d has %d children, want %d", what, i, len(s.Children), len(kids))
		}
		if !slices.Equal(s.Counters, m.counters[i]) {
			t.Fatalf("%s: span %d counters %v, want %v", what, i, s.Counters, m.counters[i])
		}
		if !slices.Equal(s.Attrs, m.attrs[i]) {
			t.Fatalf("%s: span %d attrs %v, want %v", what, i, s.Attrs, m.attrs[i])
		}
	}
}

// buildRandom grows one tree by random operations on random spans,
// mirrored in a model: new children, new and repeated counters and
// attributes, and plain appends past a list's end whose result is
// dropped. Enough operations run that every slab fills several chunks.
func buildRandom(tr *Tracer, seed int64, ops int) *model {
	rng := rand.New(rand.NewSource(seed))
	m := &model{}
	m.add(tr.Start("root"))
	for op := 0; op < ops; op++ {
		i := rng.Intn(len(m.spans))
		s := m.spans[i]
		name := fmt.Sprintf("k%d", rng.Intn(6))
		switch rng.Intn(6) {
		case 0:
			m.kids[i] = append(m.kids[i], m.add(s.Child(name)))
		case 1, 2:
			s.Add(name, 1)
			j := slices.IndexFunc(m.counters[i], func(c CounterValue) bool { return c.Name == name })
			if j < 0 {
				m.counters[i] = append(m.counters[i], CounterValue{Name: name})
				j = len(m.counters[i]) - 1
			}
			m.counters[i][j].Value++
		case 3:
			s.SetAttr(name, op)
			j := slices.IndexFunc(m.attrs[i], func(a Attr) bool { return a.Key == name })
			if j < 0 {
				m.attrs[i] = append(m.attrs[i], Attr{Key: name})
				j = len(m.attrs[i]) - 1
			}
			m.attrs[i][j].Value = op
		case 4:
			// A caller's own append past a carve must copy out.
			_ = append(s.Counters, CounterValue{Name: "stray", Value: -1})
			_ = append(s.Attrs, Attr{Key: "stray", Value: -1})
			_ = append(s.Children, &Span{Name: "stray"})
		case 5:
			s.End()
		}
	}
	return m
}

// TestCarvesNeverClobberNeighbours checks that an append past a carve
// of a tree's storage never writes a neighbour's list: child lists,
// counters and attributes all keep exactly what was added to them,
// whether they grew in place, moved to a fresh carve or were appended
// to by a caller.
func TestCarvesNeverClobberNeighbours(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		m := buildRandom(New(nil), seed, 400)
		m.check(t, fmt.Sprintf("seed %d, open", seed))
		m.spans[0].End()
		m.check(t, fmt.Sprintf("seed %d, ended", seed))
	}
}

// TestTracerSharedAcrossGoroutines roots trees of different shapes on
// one Tracer from several goroutines at once; every tree must come out
// as built. Run it under -race.
func TestTracerSharedAcrossGoroutines(t *testing.T) {
	var sink CollectSink
	tr := New(&sink)
	const workers, trees = 8, 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < trees; i++ {
				root := tr.Start("compile")
				root.SetAttr("worker", w)
				for c := 0; c <= (w+i)%5; c++ {
					sp := root.Child("phase")
					for k := 0; k <= w; k++ {
						sp.Add(fmt.Sprintf("n%d", k), int64(i))
					}
					sp.End()
				}
				root.Add("tree", int64(i))
				root.End()
			}
		}(w)
	}
	wg.Wait()
	if len(sink.Roots) != workers*trees {
		t.Fatalf("%d trees emitted, want %d", len(sink.Roots), workers*trees)
	}
	for _, root := range sink.Roots {
		w := root.Attr("worker").(int)
		i := int(root.Counter("tree"))
		if got, want := len(root.Children), (w+i)%5+1; got != want {
			t.Fatalf("worker %d tree %d: %d children, want %d", w, i, got, want)
		}
		for _, sp := range root.Children {
			if len(sp.Counters) != w+1 {
				t.Fatalf("worker %d tree %d: %d counters, want %d", w, i, len(sp.Counters), w+1)
			}
			for _, c := range sp.Counters {
				if c.Value != float64(i) {
					t.Fatalf("worker %d tree %d: counter %s = %v", w, i, c.Name, c.Value)
				}
			}
		}
	}
}
