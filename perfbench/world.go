package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/synth"
	"repro/internal/taxonomy"
	"repro/internal/train"
	"repro/internal/vecmath"
)

// Input make-up shared by every workload (recorded in README.md).
const (
	numItems   = 50000
	numUsers   = 20000
	factorK    = 32
	taxLevels  = 4 // TF(4,1): item + three category levels carry offsets
	markov     = 1
	resultK    = 10
	learnRate  = 0.05
	lambdaReg  = 0.01
	siblingMix = 0.5
	cacheThr   = 0.1 // §6.1 hot-row cache reconciliation threshold
)

// categoryLevels is the 8/64/512 category shape over numItems leaves.
var categoryLevels = []int{8, 64, 512}

// world is one generated purchase log over a generated taxonomy, split
// by the paper's µ-protocol.
type world struct {
	seed    uint64
	tree    *taxonomy.Tree
	split   dataset.Split
	history *dataset.Dataset // train + validation: what serving knows per user
	genTime time.Duration    // synth.Generate alone
}

// catalogSeed fixes the taxonomy: the catalog is part of the workload's
// definition, while the seed draws its users, their log and the traffic.
// Category sizes set the cost of filtered, cascaded and diversified
// requests and of sibling training, so a per-seed catalog would spread
// every figure across seeds.
const catalogSeed = 0x7a11

// genWorld generates the taxonomy and, from seed, the log and its split.
func genWorld(seed uint64) (*world, error) {
	tree, err := taxonomy.Generate(taxonomy.GenConfig{CategoryLevels: categoryLevels, Items: numItems, Skew: 0.6}, vecmath.NewRNG(catalogSeed))
	if err != nil {
		return nil, fmt.Errorf("taxonomy: %w", err)
	}
	cfg := synth.DefaultConfig()
	cfg.Users = numUsers
	cfg.Seed = seed ^ 0x5eed
	t0 := time.Now()
	log, _, err := synth.Generate(tree, cfg)
	genTime := time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("synth: %w", err)
	}
	sc := dataset.DefaultSplitConfig()
	sc.Seed = seed ^ 0x5b1
	split := log.Split(sc)
	return &world{seed: seed, tree: tree, split: split,
		history: dataset.Concat(split.Train, split.Validation), genTime: genTime}, nil
}

func modelParams() model.Params {
	return model.Params{K: factorK, TaxonomyLevels: taxLevels, MarkovOrder: markov, Alpha: 1, InitStd: 0.01, UseBias: true}
}

func newModel(w *world) (*model.TF, error) {
	return model.New(w.tree, numUsers, modelParams(), vecmath.NewRNG(w.seed^0x1417))
}

// trainRun is what one train.Train call reports to the benchmark.
type trainRun struct {
	wall    time.Duration
	samples int64
	epochs  []time.Duration
	loglik  []float64
}

// samplesPerSec is the epochs' sample count over the median epoch's wall
// time: the first epoch's warm-up and a stray slow epoch do not move it.
func (r trainRun) samplesPerSec() float64 {
	perEpoch := float64(r.samples) / float64(len(r.epochs))
	return perEpoch / median(secs(r.epochs))
}

// trainModel runs train.Train on the training split.
func trainModel(m *model.TF, w *world, epochs, workers int, seed uint64) (trainRun, error) {
	cfg := train.DefaultConfig()
	cfg.Epochs = epochs
	cfg.LearnRate = learnRate
	cfg.Lambda = lambdaReg
	cfg.SiblingMix = siblingMix
	cfg.Workers = workers
	if workers > 1 {
		cfg.CacheThreshold = cacheThr
	}
	cfg.Seed = seed
	start := time.Now()
	st, err := train.Train(m, w.split.Train, cfg)
	wall := time.Since(start)
	if err != nil {
		return trainRun{}, err
	}
	return trainRun{wall: wall, samples: st.Samples, epochs: st.EpochTime, loglik: st.AvgLogLik}, nil
}

// publish writes m as a v4 model file under dir, temp+rename like the
// program's own writers.
func publish(m *model.TF, dir, name string) (string, error) {
	path := filepath.Join(dir, name)
	tmp, err := os.CreateTemp(dir, name+".tmp*")
	if err != nil {
		return "", err
	}
	if err := m.Save(tmp); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return "", fmt.Errorf("save %s: %w", name, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return "", err
	}
	return path, os.Rename(tmp.Name(), path)
}

// lastBaskets returns the user's most recent observed baskets, most
// recent first — the Markov context a batch or evaluation query uses.
func lastBaskets(h *dataset.Dataset, u, n int) []dataset.Basket {
	bs := h.Users[u].Baskets
	var out []dataset.Basket
	for i := len(bs) - 1; i >= 0 && len(out) < n; i-- {
		out = append(out, bs[i])
	}
	return out
}
