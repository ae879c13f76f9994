package eda

import (
	"context"
	"fmt"
	"time"

	"llm4eda/internal/core"
	"llm4eda/internal/faultinject"
)

// MetricTransientRetries is the Report metric counting per-problem
// attempts that were retried after a transient failure. It is only set
// when non-zero (so deterministic golden outputs are unchanged), and
// the edaserver layer folds it into llm4eda_transient_retries_total.
const MetricTransientRetries = "transient_retries"

// transientRetryBudget bounds how many times one problem attempt is
// retried after transient failures before the error is surfaced.
const transientRetryBudget = 2

// transientRetryBase is the first retry's backoff; it doubles per
// attempt. Small on purpose: a transient here is a flake (an injected
// one, or a momentarily overloaded substrate), not a remote service
// with a recovery SLA.
const transientRetryBase = 5 * time.Millisecond

// runProblem executes one candidate-loop step with transient-failure
// classification: an error that classifies as transient
// (core.IsTransient — anything in the chain exposing Transient() bool)
// is retried with a doubling backoff up to transientRetryBudget times;
// permanent errors, context cancellation and exhausted budgets surface
// to the caller unchanged. Each retry is counted into *retries and
// announced as a note event, so an injected flake costs one visible
// retry instead of a failed report.
//
// The chaos hook: the eda.problem fault point fires before every
// attempt when the request context carries an injector, which is how
// `make chaos-test` plants transient flakes and wedges exactly here.
func runProblem(ctx context.Context, framework, id string, retries *int, fn func() error) error {
	for attempt := 0; ; attempt++ {
		err := fireProblemFault(ctx)
		if err == nil {
			err = fn()
		}
		if err == nil || ctx.Err() != nil || !core.IsTransient(err) || attempt >= transientRetryBudget {
			return err
		}
		*retries++
		core.Emit(ctx, core.Event{Kind: core.EventNote, Framework: framework, Phase: id,
			Detail: fmt.Sprintf("transient failure, retry %d/%d: %v", attempt+1, transientRetryBudget, err)})
		t := time.NewTimer(transientRetryBase << attempt)
		select {
		case <-ctx.Done():
			t.Stop()
			return err
		case <-t.C:
		}
	}
}

// fireProblemFault fires the per-problem chaos hook, nil-guarded so a
// production request (no injector in the context) pays one map lookup.
func fireProblemFault(ctx context.Context) error {
	if in := faultinject.From(ctx); in != nil {
		return in.Fire(ctx, faultinject.PointEDAProblem)
	}
	return nil
}

// setRetryMetric records the absorbed-retry count on a report, only
// when retries actually happened.
func setRetryMetric(rep *Report, retries int) {
	if rep != nil && retries > 0 {
		rep.Metric(MetricTransientRetries, float64(retries))
	}
}
