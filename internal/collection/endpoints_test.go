package collection

import (
	"context"
	"io"

	"msync/internal/corpus"
	"msync/internal/stats"
)

// Sync is SyncContext with a background context.
func (c *Client) Sync(conn io.ReadWriter) (*Result, error) {
	return c.SyncContext(context.Background(), conn)
}

// Serve is ServeContext with a background context.
func (s *Server) Serve(conn io.ReadWriter) (*stats.Costs, error) {
	return s.ServeContext(context.Background(), conn)
}

// VerifyAgainst is corpus.VerifyAgainst.
var VerifyAgainst = corpus.VerifyAgainst
