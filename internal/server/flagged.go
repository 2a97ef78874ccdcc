package server

import (
	"net/http"
	"strconv"
)

// FlaggedEntity is one user or service the model currently predicts
// poorly (tracked relative error at or above the requested threshold).
type FlaggedEntity struct {
	Name  string  `json:"name"`
	Error float64 `json:"error"`
}

// FlaggedResponse is the body of GET /api/v1/flagged.
type FlaggedResponse struct {
	Threshold float64         `json:"threshold"`
	Users     []FlaggedEntity `json:"users"`
	Services  []FlaggedEntity `json:"services"`
}

func (s *Server) flaggedRoutes() {
	s.handle("GET /api/v1/flagged", s.handleFlagged)
}

// handleFlagged reports entities with high tracked error — the operator's
// view of who the model is currently unsure about (fresh joiners, QoS
// regime shifts). threshold defaults to 0.5.
func (s *Server) handleFlagged(w http.ResponseWriter, r *http.Request) {
	threshold := 0.5
	if raw := r.URL.Query().Get("threshold"); raw != "" {
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil || v < 0 {
			s.countError(w, http.StatusBadRequest, "bad threshold %q", raw)
			return
		}
		threshold = v
	}
	resp := FlaggedResponse{
		Threshold: threshold,
		Users:     []FlaggedEntity{},
		Services:  []FlaggedEntity{},
	}
	view := s.eng.Pin() // one consistent snapshot for both lists
	users, services := view.HighErrorUsers(threshold), view.HighErrorServices(threshold)
	s.eng.Unpin(view)
	for _, f := range users {
		if info, ok := s.users.Get(f.ID); ok {
			resp.Users = append(resp.Users, FlaggedEntity{Name: info.Name, Error: f.Error})
		}
	}
	for _, f := range services {
		if info, ok := s.services.Get(f.ID); ok {
			resp.Services = append(resp.Services, FlaggedEntity{Name: info.Name, Error: f.Error})
		}
	}
	s.writeJSON(w, http.StatusOK, resp)
}
