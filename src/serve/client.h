/**
 * @file
 * RemoteSelect: the thin client for the compile server.
 *
 * One RemoteSelect is one connection. select_batch() keeps a bounded
 * window of a batch's queries on the wire, sending the next as each
 * response arrives, collects responses by id (the server answers out
 * of order) and returns them in request order. The window is what
 * lets a batch of any size through: sending all of it before reading
 * any answer deadlocks once requests and answers fill both socket
 * buffers. Degradation mirrors the in-process deadline contract:
 * `timed_out` and `overloaded` responses arrive without a selection,
 * and when `degrade_locally` is set the client fills in the greedy
 * fallback itself — a shed or expired query yields the same kind of
 * answer an in-process caller gets from a blown deadline, never a
 * hard failure and never a cached negative.
 *
 * Protocol errors before any answer is owed (a malformed frame, a
 * connection refused or lost before the batch is sent) throw
 * UserError: they mean the transport is broken, not that a query
 * failed. A connection that dies *mid-batch* is different — the
 * responses already received are complete answers, so select_batch()
 * keeps them and fills the unanswered slots with status "error"
 * responses describing the lost connection rather than discarding
 * the whole batch. Those synthetic errors are not degraded statuses:
 * a dead server never triggers the local greedy fallback.
 */
#ifndef RAKE_SERVE_CLIENT_H
#define RAKE_SERVE_CLIENT_H

#include <string>
#include <vector>

#include "serve/protocol.h"
#include "support/socket.h"

namespace rake::serve {

struct ClientOptions {
    /** Socket path; resolve_socket_path() handles RAKE_SOCKET. */
    std::string socket_path;

    /** Applied to every select in a batch that doesn't set its own. */
    int timeout_ms = 0;

    /** Compute the greedy fallback locally for timed_out/overloaded
     *  responses that carry no instruction. */
    bool degrade_locally = true;
};

class RemoteSelect
{
  public:
    /** Connects immediately; throws UserError when it can't. */
    explicit RemoteSelect(ClientOptions options);

    RemoteSelect(const RemoteSelect &) = delete;
    RemoteSelect &operator=(const RemoteSelect &) = delete;

    /**
     * One round trip for a single query. `backend`/`expr` as in the
     * protocol; returns the server's response (possibly locally
     * degraded per ClientOptions).
     */
    Response select(const std::string &backend, const std::string &expr);

    /**
     * Ship `requests` (ids are assigned by the client) and return the
     * responses in request order. Throws UserError when the batch
     * cannot be sent at all; once it is on the wire, a connection
     * that dies during collection yields a full-length result with
     * the received answers intact and status "error" placeholders
     * (error text names the lost connection) for the rest.
     */
    std::vector<Response>
    select_batch(std::vector<Request> requests);

    /** Fetch the server's metrics JSON. */
    std::string metrics();

    /** Liveness probe; false when the server misbehaves. */
    bool ping();

  private:
    Response read_response();

    ClientOptions options_;
    UnixSocket sock_;
    FrameReader frames_;
    int64_t next_id_ = 1;
};

} // namespace rake::serve

#endif // RAKE_SERVE_CLIENT_H
