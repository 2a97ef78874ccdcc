package adapt

import (
	"testing"
	"time"

	"github.com/qoslab/amf/internal/stream"
)

func validWorkflow() Workflow {
	return Workflow{
		Name: "wf",
		Tasks: []Task{
			{Name: "A", Candidates: []int{0, 1, 2}, SLA: 2},
			{Name: "B", Candidates: []int{3, 4}, SLA: 2},
		},
	}
}

func TestWorkflowValidate(t *testing.T) {
	if err := validWorkflow().Validate(); err != nil {
		t.Fatal(err)
	}
	cases := map[string]Workflow{
		"no tasks":      {Name: "w"},
		"unnamed task":  {Tasks: []Task{{Candidates: []int{0}}}},
		"dup task":      {Tasks: []Task{{Name: "A", Candidates: []int{0}}, {Name: "A", Candidates: []int{1}}}},
		"no candidates": {Tasks: []Task{{Name: "A"}}},
		"neg candidate": {Tasks: []Task{{Name: "A", Candidates: []int{-1}}}},
		"dup candidate": {Tasks: []Task{{Name: "A", Candidates: []int{2, 2}}}},
	}
	for name, wf := range cases {
		if err := wf.Validate(); err == nil {
			t.Errorf("%s: expected validation error", name)
		}
	}
}

func TestInitialBindings(t *testing.T) {
	wf := validWorkflow()
	b := wf.InitialBindings()
	if len(b) != 2 || b[0] != 0 || b[1] != 3 {
		t.Fatalf("initial bindings = %v", b)
	}
	if !b.validFor(wf) {
		t.Fatal("initial bindings should be valid")
	}
}

func TestBindingsValidFor(t *testing.T) {
	wf := validWorkflow()
	if (Bindings{0}).validFor(wf) {
		t.Fatal("wrong length must be invalid")
	}
	if (Bindings{0, 99}).validFor(wf) {
		t.Fatal("non-candidate binding must be invalid")
	}
	if !(Bindings{2, 4}).validFor(wf) {
		t.Fatal("candidate bindings must be valid")
	}
}

func TestStaticSelectorNeverMoves(t *testing.T) {
	s := StaticSelector{}
	if s.Name() != "static" {
		t.Fatal("name")
	}
	task := Task{Name: "A", Candidates: []int{1, 2, 3}}
	if got := s.Select(0, task, 2); got != 2 {
		t.Fatalf("static moved to %d", got)
	}
}

func TestRandomSelectorAvoidsCurrent(t *testing.T) {
	s := NewRandomSelector(1)
	if s.Name() != "random" {
		t.Fatal("name")
	}
	task := Task{Name: "A", Candidates: []int{1, 2, 3}}
	for i := 0; i < 50; i++ {
		if got := s.Select(0, task, 2); got == 2 {
			t.Fatal("random selector returned the current binding despite alternatives")
		}
	}
	single := Task{Name: "B", Candidates: []int{7}}
	if got := s.Select(0, single, 7); got != 7 {
		t.Fatalf("single candidate must stay, got %d", got)
	}
}

// tablePredictor predicts from a fixed table; missing entries are unknown.
type tablePredictor map[[2]int]float64

func (t tablePredictor) PredictRT(user, service int) (float64, bool) {
	v, ok := t[[2]int{user, service}]
	return v, ok
}

func TestPredictedSelectorPicksBest(t *testing.T) {
	pred := tablePredictor{
		{0, 1}: 3.0,
		{0, 2}: 0.5,
		{0, 3}: 1.5,
	}
	s := NewPredictedSelector(pred)
	if s.Name() != "predicted" {
		t.Fatal("name")
	}
	task := Task{Name: "A", Candidates: []int{1, 2, 3}}
	if got := s.Select(0, task, 1); got != 2 {
		t.Fatalf("predicted selector chose %d, want 2", got)
	}
}

func TestPredictedSelectorSkipsUnknownCandidates(t *testing.T) {
	pred := tablePredictor{{0, 1}: 3.0}
	s := NewPredictedSelector(pred)
	task := Task{Name: "A", Candidates: []int{1, 2}}
	// Candidate 2 is unknown: stay on 1.
	if got := s.Select(0, task, 1); got != 1 {
		t.Fatalf("selector moved to unpredictable candidate %d", got)
	}
}

func TestPredictedSelectorColdModelStays(t *testing.T) {
	s := NewPredictedSelector(tablePredictor{})
	task := Task{Name: "A", Candidates: []int{1, 2}}
	if got := s.Select(0, task, 1); got != 1 {
		t.Fatalf("cold model should keep current binding, got %d", got)
	}
}

func TestOracleSelector(t *testing.T) {
	truth := func(u, s int) float64 { return float64(s) } // lower id = better
	sel := NewOracleSelector(truth)
	if sel.Name() != "oracle" {
		t.Fatal("name")
	}
	task := Task{Name: "A", Candidates: []int{5, 3, 9}}
	if got := sel.Select(0, task, 9); got != 3 {
		t.Fatalf("oracle chose %d, want 3", got)
	}
}

// scriptedEnv returns scripted response times per (service); slice and
// user are ignored.
type scriptedEnv map[int]float64

func (e scriptedEnv) InvokeRT(_, service, _ int) float64 { return e[service] }

func TestMiddlewareTickObservesAndAdapts(t *testing.T) {
	wf := validWorkflow()
	// Service 0 violates (RT 5 > SLA 2); selector replaces with 1.
	env := scriptedEnv{0: 5, 1: 0.5, 2: 0.7, 3: 1, 4: 9}
	pred := tablePredictor{
		{7, 0}: 5, {7, 1}: 0.5, {7, 2}: 0.7,
		{7, 3}: 1, {7, 4}: 9,
	}
	var seen []stream.Sample
	mw, err := NewMiddleware(wf, 7, NewPredictedSelector(pred), func(s stream.Sample) { seen = append(seen, s) })
	if err != nil {
		t.Fatal(err)
	}
	res := mw.Tick(env, 0, time.Second)
	if res.Violations != 1 {
		t.Fatalf("violations = %d, want 1 (service 0)", res.Violations)
	}
	if res.Adaptations != 1 || mw.Adaptations() != 1 {
		t.Fatalf("adaptations = %d/%d, want 1", res.Adaptations, mw.Adaptations())
	}
	if got := mw.Bindings(); got[0] != 1 {
		t.Fatalf("binding after adaptation = %v, want task A on service 1", got)
	}
	if res.Latency != 6 { // 5 (task A on svc 0) + 1 (task B on svc 3)
		t.Fatalf("latency = %g, want 6", res.Latency)
	}
	if len(seen) != 2 || seen[0].Service != 0 || seen[1].Service != 3 {
		t.Fatalf("observer saw %+v", seen)
	}
	// Next tick uses the new binding and has no violations.
	res2 := mw.Tick(env, 0, 2*time.Second)
	if res2.Violations != 0 {
		t.Fatalf("post-adaptation violations = %d", res2.Violations)
	}
	if res2.Latency != 1.5 {
		t.Fatalf("post-adaptation latency = %g, want 1.5", res2.Latency)
	}
}

func TestMiddlewareNilObserverAllowed(t *testing.T) {
	mw, err := NewMiddleware(validWorkflow(), 0, StaticSelector{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	mw.Tick(scriptedEnv{0: 1, 3: 1}, 0, 0)
}

func TestMiddlewareConstructorErrors(t *testing.T) {
	if _, err := NewMiddleware(Workflow{}, 0, StaticSelector{}, nil); err == nil {
		t.Error("invalid workflow should error")
	}
	if _, err := NewMiddleware(validWorkflow(), -1, StaticSelector{}, nil); err == nil {
		t.Error("negative user should error")
	}
	if _, err := NewMiddleware(validWorkflow(), 0, nil, nil); err == nil {
		t.Error("nil selector should error")
	}
}

func TestMiddlewareRebind(t *testing.T) {
	mw, _ := NewMiddleware(validWorkflow(), 0, StaticSelector{}, nil)
	if err := mw.Rebind(Bindings{2, 4}); err != nil {
		t.Fatal(err)
	}
	if got := mw.Bindings(); got[0] != 2 || got[1] != 4 {
		t.Fatalf("rebind = %v", got)
	}
	if err := mw.Rebind(Bindings{99, 4}); err == nil {
		t.Fatal("invalid rebind should error")
	}
	// Bindings() must be a copy.
	b := mw.Bindings()
	b[0] = 0
	if mw.Bindings()[0] != 2 {
		t.Fatal("Bindings must return a copy")
	}
}

func TestStaticSelectorNoAdaptationEver(t *testing.T) {
	mw, _ := NewMiddleware(validWorkflow(), 0, StaticSelector{}, nil)
	env := scriptedEnv{0: 100, 3: 100} // everything violates
	for i := 0; i < 5; i++ {
		mw.Tick(env, 0, time.Duration(i))
	}
	if mw.Adaptations() != 0 {
		t.Fatalf("static policy adapted %d times", mw.Adaptations())
	}
}

// scriptedTPEnv adds scripted throughput to scriptedEnv.
type scriptedTPEnv struct {
	scriptedEnv
	tp map[int]float64
}

func (e scriptedTPEnv) InvokeTP(_, service, _ int) float64 { return e.tp[service] }

func TestMiddlewareThroughputFloorTriggersAdaptation(t *testing.T) {
	wf := Workflow{
		Name: "tp-wf",
		Tasks: []Task{
			{Name: "A", Candidates: []int{0, 1}, MinTP: 100},
		},
	}
	env := scriptedTPEnv{
		scriptedEnv: scriptedEnv{0: 0.5, 1: 0.5}, // RT fine for both
		tp:          map[int]float64{0: 50, 1: 500},
	}
	mw, err := NewMiddleware(wf, 0, NewRandomSelector(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	res := mw.Tick(env, 0, time.Second)
	if res.TPViolations != 1 || res.RTViolations != 0 || res.Violations != 1 {
		t.Fatalf("violations = %+v, want one TP violation", res)
	}
	if got := mw.Bindings(); got[0] != 1 {
		t.Fatalf("binding = %v, want replacement service 1", got)
	}
	// After moving to the high-throughput service: no violation.
	res2 := mw.Tick(env, 0, 2*time.Second)
	if res2.Violations != 0 {
		t.Fatalf("post-adaptation violations = %+v", res2)
	}
}

func TestMiddlewareTPFloorIgnoredWithoutTPEnvironment(t *testing.T) {
	wf := Workflow{
		Name:  "tp-wf",
		Tasks: []Task{{Name: "A", Candidates: []int{0}, MinTP: 100}},
	}
	mw, err := NewMiddleware(wf, 0, StaticSelector{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Plain Environment cannot report throughput: the floor is inert.
	res := mw.Tick(scriptedEnv{0: 0.5}, 0, 0)
	if res.Violations != 0 || res.TPViolations != 0 {
		t.Fatalf("violations = %+v, want none", res)
	}
}

func TestMiddlewareBothSLATermsCountOnce(t *testing.T) {
	wf := Workflow{
		Name:  "combo",
		Tasks: []Task{{Name: "A", Candidates: []int{0}, SLA: 1, MinTP: 100}},
	}
	env := scriptedTPEnv{
		scriptedEnv: scriptedEnv{0: 5},      // RT violated
		tp:          map[int]float64{0: 10}, // TP violated
	}
	mw, err := NewMiddleware(wf, 0, StaticSelector{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := mw.Tick(env, 0, 0)
	if res.RTViolations != 1 || res.TPViolations != 1 {
		t.Fatalf("split counters = %+v", res)
	}
	if res.Violations != 1 {
		t.Fatalf("a task violating both terms should count once: %+v", res)
	}
}
