package serve

// WithWorkers sets the observation worker count (0 = DefaultWorkers).
func WithWorkers(n int) Option {
	return func(s *Server) { s.workers = n }
}
