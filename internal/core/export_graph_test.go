package core

// GraphSize returns the number of vertices and edges of s's internal
// graph, barriers included.
func GraphSize(s *System) (vertices, edges int) { return s.g.Len(), s.g.NumEdges() }
