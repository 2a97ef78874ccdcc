// Package server implements the paper's "QoS prediction service"
// (framework Fig. 3) as an HTTP/JSON service on the standard library:
// input handling (collecting observed QoS data from users), online
// updating (folding the stream into the AMF model and running replay in
// the background), QoS prediction on demand, and the user/service
// managers handling join and leave.
package server

// Observation is one reported QoS measurement: user invoked service and
// measured Value (e.g. response time in seconds). TimestampMs is the
// observation time in Unix milliseconds; zero means "now", and so does a
// time ahead of the server's clock.
type Observation struct {
	User        string  `json:"user"`
	Service     string  `json:"service"`
	Value       float64 `json:"value"`
	TimestampMs int64   `json:"timestampMs,omitempty"`
}

// ObserveRequest is the body of POST /api/v1/observe.
type ObserveRequest struct {
	Observations []Observation `json:"observations"`
}

// ObserveResponse reports what the input-handling stage did.
type ObserveResponse struct {
	Accepted    int `json:"accepted"`
	NewUsers    int `json:"newUsers"`
	NewServices int `json:"newServices"`
}

// PredictResponse is the body of GET /api/v1/predict.
type PredictResponse struct {
	User    string  `json:"user"`
	Service string  `json:"service"`
	Value   float64 `json:"value"`
	// Confidence in (0, 1] derived from the model's per-entity error
	// trackers; near 1 for converged pairs, low for fresh entities.
	Confidence float64 `json:"confidence"`
}

// BatchPredictRequest is the body of POST /api/v1/predict: one user, many
// candidate services (the candidate-ranking call an adaptation action
// makes).
type BatchPredictRequest struct {
	User     string   `json:"user"`
	Services []string `json:"services"`
}

// BatchPrediction is one element of a batch response. OK is false when no
// estimate exists (unknown service, or the user is unknown).
type BatchPrediction struct {
	Service    string  `json:"service"`
	Value      float64 `json:"value,omitempty"`
	Confidence float64 `json:"confidence,omitempty"`
	OK         bool    `json:"ok"`
}

// BatchPredictResponse is the response of POST /api/v1/predict.
type BatchPredictResponse struct {
	User        string            `json:"user"`
	Predictions []BatchPrediction `json:"predictions"`
}

// RankRequest is the body of POST /api/v1/rank: the paper's
// candidate-selection query served by the ranking fast path. Services
// lists the candidates; an empty/omitted list ranks every known service
// (TopK then becomes mandatory). TopK <= 0 returns the full ranking of
// the candidate list. Metric selects the ordering: "rt" (response time,
// lower is better — the default) or "tp" (throughput, higher is better).
type RankRequest struct {
	User     string   `json:"user"`
	Services []string `json:"services,omitempty"`
	TopK     int      `json:"topk,omitempty"`
	Metric   string   `json:"metric,omitempty"`
}

// RankedService is one entry of a ranking response, best first.
type RankedService struct {
	Service string  `json:"service"`
	Value   float64 `json:"value"`
}

// RankResponse is the body of POST /api/v1/rank. The whole ranking is
// computed against one immutable published view (ViewVersion), so it is
// internally consistent: no concurrent model update can reorder it.
type RankResponse struct {
	User        string          `json:"user"`
	Metric      string          `json:"metric"`
	Ranked      []RankedService `json:"ranked"`
	Unknown     []string        `json:"unknown,omitempty"`
	Candidates  int             `json:"candidates"`
	ViewVersion uint64          `json:"viewVersion"`
}

// StatsResponse is the body of GET /api/v1/stats.
type StatsResponse struct {
	Users    int   `json:"users"`
	Services int   `json:"services"`
	Updates  int64 `json:"updates"`
	UptimeMs int64 `json:"uptimeMs"`
}

// EntityInfo describes one registered user or service.
type EntityInfo struct {
	Name string `json:"name"`
	ID   int    `json:"id"`
}

// ErrorResponse is the uniform error body.
type ErrorResponse struct {
	Error string `json:"error"`
}
