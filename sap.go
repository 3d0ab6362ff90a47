package sap

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/classify"
	"repro/internal/dataset"
	"repro/internal/perturb"
	"repro/internal/privacy"
	"repro/internal/protocol"
)

// Re-exported core types. The facade aliases the internal packages' types
// so downstream code can be written entirely against import path "repro".
type (
	// Dataset is an in-memory labeled dataset.
	Dataset = dataset.Dataset
	// Normalizer rescales features to [0,1] per column.
	Normalizer = dataset.Normalizer
	// PartitionScheme selects how data is split across providers.
	PartitionScheme = dataset.PartitionScheme
	// Perturbation is one geometric perturbation G : (R, t, σ).
	Perturbation = perturb.Perturbation
	// Adaptor is a space adaptor between two perturbation spaces.
	Adaptor = perturb.Adaptor
	// PrivacyReport is a full attack-suite evaluation.
	PrivacyReport = privacy.Report
	// Classifier is a trainable multi-class classifier.
	Classifier = classify.Classifier
	// SVMConfig tunes the SMO trainer.
	SVMConfig = classify.SVMConfig
	// Kernel is an SVM kernel.
	Kernel = classify.Kernel
)

// Partition schemes, re-exported.
const (
	PartitionUniform = dataset.PartitionUniform
	PartitionClass   = dataset.PartitionClass
)

// ErrBadInput flags invalid facade arguments.
var ErrBadInput = errors.New("sap: bad input")

// DatasetNames returns the twelve built-in dataset profiles in paper order.
func DatasetNames() []string { return dataset.ProfileNames() }

// GenerateDataset synthesizes one of the twelve built-in datasets,
// deterministically from seed, and min-max normalizes it.
func GenerateDataset(name string, seed int64) (*Dataset, error) {
	rng := rand.New(rand.NewSource(seed))
	d, err := dataset.GenerateByName(name, rng)
	if err != nil {
		return nil, err
	}
	norm, _, err := dataset.Normalize(d)
	if err != nil {
		return nil, err
	}
	return norm, nil
}

// NewDataset wraps raw feature rows and labels, validating shape.
func NewDataset(name string, x [][]float64, y []int) (*Dataset, error) {
	return dataset.New(name, x, y)
}

// Normalize min-max normalizes a dataset and returns the fitted normalizer
// for transforming future data with the same ranges.
func Normalize(d *Dataset) (*Dataset, *Normalizer, error) {
	return dataset.Normalize(d)
}

// Split partitions a pooled dataset across k providers under the given
// scheme, deterministically from seed.
func Split(d *Dataset, k int, scheme PartitionScheme, seed int64) ([]*Dataset, error) {
	return dataset.Partition(d, rand.New(rand.NewSource(seed)), k, scheme)
}

// TrainTestSplit holds out testFrac of the records, stratified by class.
func TrainTestSplit(d *Dataset, testFrac float64, seed int64) (train, test *Dataset, err error) {
	return d.Split(rand.New(rand.NewSource(seed)), testFrac)
}

// OptimizePerturbation searches for a perturbation of d with a high minimum
// privacy guarantee under the attack suite, deterministically from seed.
// It returns the perturbation and its guarantee ρ. The optimizer-related
// options (WithOptimizer, WithNoiseSigma, WithScoreSamples,
// WithFullAttackSuite) apply; the defaults are 8 random restarts, 12
// refinement steps and σ = 0.05.
func OptimizePerturbation(d *Dataset, seed int64, opts ...Option) (*Perturbation, float64, error) {
	if d == nil || d.Len() == 0 {
		return nil, 0, fmt.Errorf("%w: empty dataset", ErrBadInput)
	}
	cfg := config{noiseSigma: 0.05}
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, 0, err
		}
	}
	// Session-only options are rejected rather than silently ignored —
	// WithSeed in particular would conflict with the seed parameter.
	if len(cfg.parties) != 0 || cfg.seed != 0 || cfg.workers != 0 || cfg.maxBatch != 0 || cfg.refitEvery != 0 || cfg.group != "" || cfg.metrics != nil || len(cfg.clusterNodes) != 0 || cfg.clusterReplicas != 0 || cfg.downFor != 0 || cfg.failoverGrace != 0 || cfg.antiEntropyEvery != 0 || cfg.float32Payloads || cfg.adminToken != "" || cfg.quotaRate != 0 || cfg.quotaBurst != 0 || len(cfg.views) != 0 {
		return nil, 0, fmt.Errorf("%w: session option passed to OptimizePerturbation (use the seed parameter and optimizer options)", ErrBadInput)
	}
	opt := privacy.NewOptimizer(privacyOptimizerConfig(&cfg))
	p, res, err := opt.Optimize(rand.New(rand.NewSource(seed)), d.FeaturesT())
	if err != nil {
		return nil, 0, err
	}
	return p, res.Guarantee, nil
}

// EvaluatePrivacy attacks a (original, perturbed) dataset pair with the
// full suite and reports the minimum privacy guarantee. knownPairs matched
// records are granted to the known-sample attack (0 disables it).
func EvaluatePrivacy(original *Dataset, p *Perturbation, seed int64, knownPairs int) (*PrivacyReport, error) {
	if original == nil || original.Len() == 0 {
		return nil, fmt.Errorf("%w: empty dataset", ErrBadInput)
	}
	if knownPairs < 0 || knownPairs > original.Len() {
		return nil, fmt.Errorf("%w: knownPairs=%d with %d records", ErrBadInput, knownPairs, original.Len())
	}
	rng := rand.New(rand.NewSource(seed))
	x := original.FeaturesT()
	y, _, err := p.Apply(rng, x)
	if err != nil {
		return nil, err
	}
	know := privacy.Knowledge{Original: x}
	if knownPairs > 0 {
		know.KnownOriginal = x.Slice(0, x.Rows(), 0, knownPairs)
		know.KnownPerturbed = y.Slice(0, y.Rows(), 0, knownPairs)
	}
	return privacy.DefaultEvaluator().Evaluate(x, y, know)
}

// NewKNN returns a K-nearest-neighbours classifier (k=0 selects 5).
func NewKNN(k int) Classifier { return classify.NewKNN(k) }

// NewSVM returns an SMO-trained SVM (zero config selects RBF with γ=1/d).
func NewSVM(cfg SVMConfig) Classifier { return classify.NewSVM(cfg) }

// NewNearestCentroid returns the nearest-centroid baseline classifier.
func NewNearestCentroid() Classifier { return classify.NewNearestCentroid() }

// Accuracy scores a fitted classifier on a test set.
func Accuracy(c Classifier, test *Dataset) (float64, error) {
	return classify.Accuracy(c, test)
}

// RiskEq1 and RiskSAP re-export the paper's risk equations.
var (
	// RiskEq1 is Equation 1: R = π·(1 − s·ρ/b).
	RiskEq1 = protocol.RiskEq1
	// RiskSAP is Equation 2: the overall SAP risk.
	RiskSAP = protocol.RiskSAP
	// MinParties is the Figure-4 bound on the number of parties.
	MinParties = protocol.MinPartiesRiskThreshold
)
