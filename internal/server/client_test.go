package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"pgridfile/internal/loadgen"
)

// TestClientDoMatchesTypedCalls checks Client.Do against the typed call
// each op kind names: for every op of one synthesized batch, the accounting
// and error must agree (Elapsed aside, which is wall clock). The cache is
// off so both calls pay the same reads. An op of unknown kind must fail
// without reaching the server.
func TestClientDoMatchesTypedCalls(t *testing.T) {
	s, f := newTestServer(t, 600, 4, Config{CacheBytes: -1})
	c := newTestClient(t, s, ClientConfig{})
	ctx := context.Background()

	typed := map[loadgen.OpKind]func(loadgen.Op) (QueryInfo, error){
		loadgen.OpPoint: func(op loadgen.Op) (QueryInfo, error) {
			_, info, err := c.Point(op.Key)
			return info, err
		},
		loadgen.OpRange: func(op loadgen.Op) (QueryInfo, error) {
			_, info, err := c.Range(op.Rect)
			return info, err
		},
		loadgen.OpRangeCount: func(op loadgen.Op) (QueryInfo, error) {
			_, info, err := c.RangeCount(op.Rect)
			return info, err
		},
		loadgen.OpPartialMatch: func(op loadgen.Op) (QueryInfo, error) {
			_, info, err := c.PartialMatch(op.Key)
			return info, err
		},
		loadgen.OpKNN: func(op loadgen.Op) (QueryInfo, error) {
			_, info, err := c.KNN(op.Key, op.K)
			return info, err
		},
	}
	seen := map[loadgen.OpKind]bool{}
	for i, op := range loadgen.Synthesize(f.Domain(), loadgen.SynthOptions{}, 200, 5) {
		seen[op.Kind] = true
		got, err := c.Do(ctx, op)
		want, werr := typed[op.Kind](op)
		got.Elapsed, want.Elapsed = 0, 0
		if got != want || fmt.Sprint(err) != fmt.Sprint(werr) {
			t.Errorf("op %d (%v): Do = %+v, %v; typed call = %+v, %v", i, op.Kind, got, err, want, werr)
		}
	}
	for k := range typed {
		if !seen[k] {
			t.Errorf("batch holds no %v op", k)
		}
	}

	before := s.Snapshot().QueriesTotal
	if _, err := c.Do(ctx, loadgen.Op{Kind: 99}); err == nil {
		t.Error("op of unknown kind accepted")
	}
	if after := s.Snapshot().QueriesTotal; after != before {
		t.Errorf("op of unknown kind reached the server: queries %d → %d", before, after)
	}
}

// TestClientMalformedReplyNotRetried: a reply that fails to decode ends the
// request after one attempt on both transports, even for an idempotent
// verb. The fake server answers every request — bare or tagged — with a
// VerbPoints frame whose payload is too short to decode.
func TestClientMalformedReplyNotRetried(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var requests atomic.Int64
	bad := Frame{Verb: VerbPoints, Payload: []byte{1, 2, 3}}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				for {
					f, err := ReadFrame(conn)
					if err != nil {
						return
					}
					requests.Add(1)
					reply := bad
					if id, _, err := UnwrapTagged(f); err == nil {
						if reply, err = WrapTagged(id, bad); err != nil {
							return
						}
					}
					if WriteFrame(conn, reply) != nil {
						return
					}
				}
			}()
		}
	}()

	for _, pipeline := range []int{0, 8} {
		t.Run(fmt.Sprintf("pipeline=%d", pipeline), func(t *testing.T) {
			requests.Store(0)
			c, err := NewClient(ClientConfig{
				Addr: ln.Addr().String(), Pipeline: pipeline, Retries: 2,
				Backoff: time.Millisecond, RequestTimeout: time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			_, _, err = c.Point([]float64{0.5, 0.5})
			if err == nil {
				t.Fatal("malformed reply decoded without error")
			}
			var se *ServerError
			if errors.As(err, &se) {
				t.Errorf("decode failure surfaced as a server error: %v", err)
			}
			if n := requests.Load(); n != 1 {
				t.Errorf("server received %d requests, want 1 (err: %v)", n, err)
			}
		})
	}
}
