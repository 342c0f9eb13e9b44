package main

// stages.go times exported functions of single layers over the run's
// request corpus: single-threaded, the median of five repetitions of at
// least 100 ms each.

import "time"

const (
	stageCorpus  = 1024
	stageRepeats = 5
	stageMinTime = 100 * time.Millisecond
)

func stageMetrics(l metricSet, obj objectSpec, seed uint64) error {
	stages, facts, err := buildStages(obj, obj.corpus(seed, stageCorpus))
	if err != nil {
		return err
	}
	for _, st := range stages {
		var perOp []float64
		for r := 0; r < stageRepeats; r++ {
			ops := 0
			t0 := time.Now()
			for time.Since(t0) < stageMinTime {
				ops += st.run()
			}
			perOp = append(perOp, float64(time.Since(t0).Nanoseconds())/float64(ops))
		}
		v := median(perOp)
		if st.name == "analysis.analyze_ms" {
			v /= 1e6
		}
		l.set(st.name, v)
	}
	l.set("wire.envelope_bytes", facts.envelopeBytes)
	l.set("earlysched.global_share", facts.globalShare)
	return nil
}
