package pref

import (
	"repro/internal/roadnet"
	"repro/internal/route"
)

// Learner extracts routing preferences from path sets, following the
// coordinate-descent procedure of Section V-A: first choose the master
// travel-cost feature whose lowest-cost paths best match the ground
// truth, then test each candidate slave road-condition feature and keep
// the one that improves similarity the most (or none).
//
// Every candidate path is an Algorithm 2 search on the Learner's
// route.PathEngine: its own Dijkstra engine (NewLearner) or a fork of
// the engine a router serves on (NewLearnerOn). A Learner is not safe
// for concurrent use because that engine fork owns per-query state.
type Learner struct {
	g   *roadnet.Graph
	eng route.PathEngine
	// MaxPaths caps how many paths of a T-edge's path set are used for
	// learning; 0 means all. Large T-edges carry hundreds of paths and
	// the cap keeps offline time linear in the number of T-edges.
	MaxPaths int
	// Slaves is the candidate slave feature set; defaults to
	// CandidateSlaves().
	Slaves []SlaveFeature
	// MinImprovement is the similarity gain a slave feature must deliver
	// over the master-only path to be adopted.
	MinImprovement float64
}

// NewLearner returns a Learner over g with default settings, searching
// with plain Dijkstra.
func NewLearner(g *roadnet.Graph) *Learner {
	return NewLearnerOn(route.NewEngine(g))
}

// NewLearnerOn returns a Learner with default settings that searches on
// eng, which it owns from then on: pass a fork, one per goroutine. On a
// contraction hierarchy pass a route.CHEngine Detached fork, so the
// candidate metrics learning customizes stay off the serving table.
func NewLearnerOn(eng route.PathEngine) *Learner {
	return &Learner{
		g:              eng.Graph(),
		eng:            eng,
		MaxPaths:       8,
		Slaves:         CandidateSlaves(),
		MinImprovement: 1e-9,
	}
}

// Result reports a learned preference together with the similarity it
// achieves on the training paths.
type Result struct {
	Preference Preference
	// Similarity is the mean Eq. 1 similarity between the preference-
	// constructed paths and the ground-truth paths.
	Similarity float64
	// PathsUsed is how many paths participated after capping.
	PathsUsed int
}

// Learn extracts a single representative preference from a path set
// (typically the Pij of one T-edge). An empty or degenerate path set
// yields the fastest-path preference with zero similarity.
func (l *Learner) Learn(paths []roadnet.Path) Result {
	sample := l.sample(paths)
	if len(sample) == 0 {
		return Result{Preference: Preference{Master: roadnet.TT}, Similarity: 0}
	}

	// Step 1: rank master cost features by master-only similarity.
	sims := make([]float64, roadnet.NumCostWeights)
	for w := roadnet.Weight(0); w < roadnet.NumCostWeights; w++ {
		sims[w] = l.avgSim(sample, w, NoSlave)
	}
	first, second := roadnet.Weight(0), roadnet.Weight(1)
	if sims[second] > sims[first] {
		first, second = second, first
	}
	for w := roadnet.Weight(2); w < roadnet.NumCostWeights; w++ {
		switch {
		case sims[w] > sims[first]:
			first, second = w, first
		case sims[w] > sims[second]:
			second = w
		}
	}

	// Step 2: best slave road-condition feature. When ground-truth
	// paths are dominated by a road-condition preference, the
	// master-only ranking of step 1 is noisy, so the descent keeps the
	// two best masters in play (still far cheaper than the full grid).
	best := Preference{Master: first, Slave: NoSlave}
	bestSim := sims[first]
	for _, m := range []roadnet.Weight{first, second} {
		for _, s := range l.Slaves {
			sim := l.avgSim(sample, m, s)
			if sim > bestSim+l.MinImprovement {
				bestSim = sim
				best = Preference{Master: m, Slave: s}
			}
		}
	}
	return Result{Preference: best, Similarity: bestSim, PathsUsed: len(sample)}
}

// LearnPerPath learns one preference per individual path. The Fig. 6(a)
// statistic — how many unique preferences a T-edge's path set produces —
// is computed from these.
func (l *Learner) LearnPerPath(paths []roadnet.Path) []Result {
	out := make([]Result, 0, len(paths))
	for _, p := range paths {
		if len(p) < 2 {
			continue
		}
		out = append(out, l.Learn([]roadnet.Path{p}))
	}
	return out
}

// ConstructPath builds the path the preference implies between s and d,
// using Algorithm 2. The boolean is false if d is unreachable.
func (l *Learner) ConstructPath(p Preference, s, d roadnet.VertexID) (roadnet.Path, bool) {
	path, _, ok := l.eng.RoutePref(s, d, p.Master, p.Slave.Predicate())
	return path, ok
}

func (l *Learner) sample(paths []roadnet.Path) []roadnet.Path {
	var sample []roadnet.Path
	for _, p := range paths {
		if len(p) >= 2 {
			sample = append(sample, p)
		}
	}
	if l.MaxPaths > 0 && len(sample) > l.MaxPaths {
		// Deterministic thinning: take evenly spaced paths so the sample
		// spans the whole set regardless of insertion order.
		thin := make([]roadnet.Path, 0, l.MaxPaths)
		step := float64(len(sample)) / float64(l.MaxPaths)
		for i := 0; i < l.MaxPaths; i++ {
			thin = append(thin, sample[int(float64(i)*step)])
		}
		sample = thin
	}
	return sample
}

func (l *Learner) avgSim(paths []roadnet.Path, w roadnet.Weight, s SlaveFeature) float64 {
	var total float64
	for _, gt := range paths {
		cand, _, ok := l.eng.RoutePref(gt[0], gt[len(gt)-1], w, s.Predicate())
		if !ok {
			continue
		}
		total += SimEq1(l.g, gt, cand)
	}
	return total / float64(len(paths))
}
