// Package learned implements the statistical-learning approach to demand
// estimation that the paper tried first and rejected (Section 4): train a
// model on telemetry from observed workloads, predict whether adding
// resources will help. The paper's finding — "the resulting model [had]
// high prediction accuracy on the workload it had been trained on. However,
// the accuracy would degrade very significantly for other, unseen
// workloads" — is reproduced as an ablation: a logistic-regression
// classifier over telemetry features is trained on one workload family and
// evaluated on another, against the rule-based estimator on the same data.
//
// The root cause the paper identifies is coverage, not model class: "when
// collecting training data — we can only observe a very small fraction of
// [the] space of the possible customer workloads." Concretely, a model
// trained on resource-bound workloads never sees a lock-dominated sample,
// so it cannot learn that high latency with an insignificant *resource*
// wait share means scaling will not help — the distinction the hand-built
// rules encode from domain knowledge.
package learned

import (
	"fmt"
	"math"

	"daasscale/internal/resource"
	"daasscale/internal/telemetry"
)

// FeatureDim is the number of features extracted per sample.
const FeatureDim = 8

// Features extracts the classifier's feature vector from one telemetry
// snapshot. The same raw signals the rules consume are available — the
// model's failure mode is coverage of the workload space, not information.
func Features(s *telemetry.Snapshot) [FeatureDim]float64 {
	resourceWaits := s.WaitMs[telemetry.WaitCPU] + s.WaitMs[telemetry.WaitMemory] +
		s.WaitMs[telemetry.WaitDiskIO] + s.WaitMs[telemetry.WaitLogIO]
	resourceShare := 0.0
	if t := s.TotalWaitMs(); t > 0 {
		resourceShare = resourceWaits / t
	}
	return [FeatureDim]float64{
		s.Utilization[resource.CPU],
		s.Utilization[resource.DiskIO],
		math.Log1p(s.WaitMs[telemetry.WaitCPU]) / 20,
		math.Log1p(s.WaitMs[telemetry.WaitDiskIO]) / 20,
		resourceShare,
		s.AvgLatencyMs / 100,
		s.OfferedRPS / 100,
		math.Log1p(s.PhysicalReads+s.PhysicalWrites) / 15,
	}
}

// Sample is one labeled observation.
type Sample struct {
	X [FeatureDim]float64
	// ScaleUpHelps is the ground-truth label: running the same interval in
	// the next larger container reduced p95 latency substantially.
	ScaleUpHelps bool
}

// Model is a logistic-regression classifier with the feature
// standardization fitted on its training data baked in — one more way the
// model is tied to the training workload's scales.
type Model struct {
	W [FeatureDim]float64
	B float64
	// Mean and Std are the training set's per-feature statistics used to
	// standardize inputs.
	Mean [FeatureDim]float64
	Std  [FeatureDim]float64
}

// standardize applies the training-set z-score transform.
func (m *Model) standardize(x [FeatureDim]float64) [FeatureDim]float64 {
	for i := range x {
		if m.Std[i] > 0 {
			x[i] = (x[i] - m.Mean[i]) / m.Std[i]
		}
	}
	return x
}

// Predict returns P(scaling up helps | x).
func (m *Model) Predict(x [FeatureDim]float64) float64 {
	x = m.standardize(x)
	z := m.B
	for i, w := range m.W {
		z += w * x[i]
	}
	return 1 / (1 + math.Exp(-z))
}

// Classify applies the 0.5 decision threshold.
func (m *Model) Classify(x [FeatureDim]float64) bool { return m.Predict(x) >= 0.5 }

// TrainConfig tunes gradient descent.
type TrainConfig struct {
	// Epochs over the training set (0 → 400).
	Epochs int
	// LearningRate for gradient descent (0 → 1).
	LearningRate float64
	// L2 regularization strength (0 → 1e-4).
	L2 float64
}

// Train fits a logistic regression by batch gradient descent on
// standardized features. Deterministic.
func Train(samples []Sample, cfg TrainConfig) (*Model, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("learned: no training samples")
	}
	var pos int
	for _, s := range samples {
		if s.ScaleUpHelps {
			pos++
		}
	}
	if pos == 0 || pos == len(samples) {
		return nil, fmt.Errorf("learned: training set needs both classes (got %d/%d positive)", pos, len(samples))
	}
	if cfg.Epochs == 0 {
		cfg.Epochs = 400
	}
	if cfg.LearningRate == 0 {
		cfg.LearningRate = 1
	}
	if cfg.L2 == 0 {
		cfg.L2 = 1e-4
	}
	m := &Model{}
	n := float64(len(samples))
	for i := 0; i < FeatureDim; i++ {
		for _, s := range samples {
			m.Mean[i] += s.X[i]
		}
		m.Mean[i] /= n
		for _, s := range samples {
			d := s.X[i] - m.Mean[i]
			m.Std[i] += d * d
		}
		m.Std[i] = math.Sqrt(m.Std[i] / n)
	}
	for e := 0; e < cfg.Epochs; e++ {
		var gradW [FeatureDim]float64
		var gradB float64
		for _, s := range samples {
			p := m.Predict(s.X)
			y := 0.0
			if s.ScaleUpHelps {
				y = 1
			}
			d := p - y
			sx := m.standardize(s.X)
			for i := range gradW {
				gradW[i] += d * sx[i]
			}
			gradB += d
		}
		for i := range m.W {
			m.W[i] -= cfg.LearningRate * (gradW[i]/n + cfg.L2*m.W[i])
		}
		m.B -= cfg.LearningRate * gradB / n
	}
	return m, nil
}

// BalancedAccuracy averages the per-class accuracies, so a classifier that
// learned only the base rate scores 0.5 regardless of class imbalance.
func BalancedAccuracy(samples []Sample, classify func(Sample) bool) float64 {
	var posOK, posN, negOK, negN int
	for _, s := range samples {
		got := classify(s)
		if s.ScaleUpHelps {
			posN++
			if got {
				posOK++
			}
		} else {
			negN++
			if !got {
				negOK++
			}
		}
	}
	switch {
	case posN == 0 && negN == 0:
		return 0
	case posN == 0:
		return float64(negOK) / float64(negN)
	case negN == 0:
		return float64(posOK) / float64(posN)
	}
	return (float64(posOK)/float64(posN) + float64(negOK)/float64(negN)) / 2
}
