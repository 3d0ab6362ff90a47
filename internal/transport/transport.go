// Package transport moves opaque, framed payloads between named protocol
// endpoints. Two implementations are provided: an in-memory hub for tests,
// benchmarks and single-process simulation, and a TCP transport whose frames
// are sealed with AES-GCM — the paper's §3 assumes "encryption is applied
// before data is transmitted on the network". Everything above this layer
// (SAP protocol rounds, serving traffic, stream ingest) is
// transport-agnostic: a deployment picks its network by handing the facade
// a different Conn.
package transport

import (
	"context"
	"errors"
)

// Errors returned by transports.
var (
	ErrClosed          = errors.New("transport: endpoint closed")
	ErrUnknownEndpoint = errors.New("transport: unknown endpoint")
	ErrDuplicateName   = errors.New("transport: endpoint name already registered")
	ErrFrameTooLarge   = errors.New("transport: frame exceeds size limit")
	ErrBadFrame        = errors.New("transport: malformed frame")
)

// Envelope is one received message.
type Envelope struct {
	From    string
	Payload []byte
}

// Conn is one endpoint's connection to the network.
type Conn interface {
	// Name returns the endpoint's registered name.
	Name() string
	// Send delivers payload to the named endpoint. The payload is copied;
	// the caller may reuse the buffer. Send is safe for concurrent use:
	// frames from concurrent senders never interleave.
	Send(ctx context.Context, to string, payload []byte) error
	// Recv blocks for the next message, honoring ctx cancellation.
	Recv(ctx context.Context) (Envelope, error)
	// Close releases the endpoint. Subsequent calls are no-ops.
	Close() error
}

// Network hands out named endpoints.
type Network interface {
	// Endpoint registers and returns the endpoint with the given name.
	Endpoint(name string) (Conn, error)
}
