#include "serve/client.h"

#include <map>

#include "hir/sexpr.h"
#include "serve/backends.h"
#include "support/error.h"

namespace rake::serve {

namespace {

/**
 * The client-side greedy fallback for a shed or expired query — the
 * same degradation an in-process caller gets when a deadline blows:
 * the backend's synthesis-free selector, computed locally so a
 * saturated server costs nothing beyond the round trip.
 */
void
degrade_locally(Request &request, Response &response)
{
    if (!response.degraded_like_timeout() || !response.instr.empty())
        return;
    static const std::map<std::string, synth::BackendFactory>
        registry = default_backend_registry();
    const auto it = registry.find(request.backend);
    if (it == registry.end())
        return;
    try {
        const std::unique_ptr<backend::TargetISA> isa = it->second();
        const hir::ExprPtr expr = hir::parse_expr(request.expr);
        if (const auto greedy = isa->greedy_select(expr)) {
            response.instr = isa->instr_to_sexpr(*greedy);
            response.degraded = true;
        }
    } catch (const UserError &) {
        // Unparseable expression: leave the response as the server
        // sent it; the caller sees the degraded status either way.
    }
}

} // namespace

RemoteSelect::RemoteSelect(ClientOptions options)
    : options_(std::move(options))
{
    const std::string path = resolve_socket_path(options_.socket_path);
    RAKE_USER_CHECK(!path.empty(),
                    "no socket path (use --socket or RAKE_SOCKET)");
    sock_ = unix_connect(path);
}

Response
RemoteSelect::read_response()
{
    char buf[4096];
    for (;;) {
        std::string payload, frame_error;
        const FrameReader::Status st =
            frames_.next(&payload, &frame_error);
        if (st == FrameReader::Status::Frame) {
            const Response resp = parse_response(payload);
            RAKE_USER_CHECK(resp.status != "protocol_error",
                            "server rejected the session: "
                                << resp.error);
            return resp;
        }
        RAKE_USER_CHECK(st != FrameReader::Status::Error,
                        "malformed frame from server: " << frame_error);
        const ssize_t n = sock_.recv_some(buf, sizeof(buf));
        RAKE_USER_CHECK(n > 0, "server closed the connection"
                                   << (frames_.mid_frame()
                                           ? " mid-frame"
                                           : ""));
        frames_.feed(buf, static_cast<size_t>(n));
    }
}

namespace {

/**
 * Requests in flight (sent, not yet answered) per batch, by count and
 * by wire bytes. Sending a whole large batch before reading any answer
 * deadlocks: the server blocks writing answers the client is not yet
 * reading, stops reading requests, and the client blocks sending. With
 * this window the unanswered requests and their answers fit in the
 * socket buffers. The count is far below the server's default
 * admission queue (256), so a window is never shed by its own size,
 * and above the handful of identical queries in-flight dedupe needs
 * to see at once.
 */
constexpr size_t kMaxInFlight = 32;
constexpr size_t kMaxInFlightBytes = 64 * 1024;

} // namespace

std::vector<Response>
RemoteSelect::select_batch(std::vector<Request> requests)
{
    if (requests.empty())
        return {};
    std::vector<std::string> frames;
    std::map<int64_t, size_t> slot; ///< unanswered id -> request index
    for (size_t i = 0; i < requests.size(); ++i) {
        Request &request = requests[i];
        request.op = Op::Select;
        request.id = next_id_++;
        if (request.timeout_ms <= 0)
            request.timeout_ms = options_.timeout_ms;
        frames.push_back(frame_encode(encode_request(request)));
        slot[request.id] = i;
    }

    // Keep a bounded window of requests on the wire; each answer read
    // makes room for the next. The server answers out of order, so
    // answers are matched by id.
    std::vector<Response> responses(requests.size());
    size_t sent = 0, answered = 0, inflight_bytes = 0;
    std::string lost; // why the connection died, once it has
    auto fill = [&] {
        std::string wire;
        while (sent < frames.size() && sent - answered < kMaxInFlight &&
               (sent == answered ||
                inflight_bytes + frames[sent].size() <=
                    kMaxInFlightBytes)) {
            inflight_bytes += frames[sent].size();
            wire += frames[sent++];
        }
        return wire.empty() || sock_.send_all(wire);
    };
    RAKE_USER_CHECK(fill(), "cannot send batch: server connection lost");
    while (answered < requests.size()) {
        Response resp;
        try {
            resp = read_response();
        } catch (const UserError &e) {
            lost = e.what();
            break;
        }
        const auto it = slot.find(resp.id);
        RAKE_USER_CHECK(it != slot.end(),
                        "response for unknown request id " << resp.id);
        const size_t i = it->second;
        slot.erase(it);
        ++answered;
        inflight_bytes -= frames[i].size();
        if (options_.degrade_locally)
            degrade_locally(requests[i], resp);
        responses[i] = std::move(resp);
        if (!fill()) {
            lost = "send failed";
            break;
        }
    }
    // The transport died mid-batch. Everything already received is a
    // complete, valid answer — keep it, and surface the unanswered
    // remainder as structured errors instead of throwing the whole
    // batch away. "error" is deliberately not a degraded status: a
    // dead connection must not trigger the local greedy fallback.
    for (const auto &[id, i] : slot) {
        Response &r = responses[i];
        r.id = id;
        r.status = "error";
        r.error = "server connection lost mid-batch: " + lost;
    }
    return responses;
}

Response
RemoteSelect::select(const std::string &backend, const std::string &expr)
{
    Request request;
    request.backend = backend;
    request.expr = expr;
    std::vector<Request> batch;
    batch.push_back(std::move(request));
    return std::move(select_batch(std::move(batch)).front());
}

std::string
RemoteSelect::metrics()
{
    Request request;
    request.op = Op::Metrics;
    request.id = next_id_++;
    RAKE_USER_CHECK(sock_.send_all(
                        frame_encode(encode_request(request))),
                    "cannot send metrics request");
    const Response resp = read_response();
    RAKE_USER_CHECK(resp.id == request.id && resp.status == "ok",
                    "bad metrics response (status " << resp.status
                                                    << ")");
    return resp.metrics_json;
}

bool
RemoteSelect::ping()
{
    Request request;
    request.op = Op::Ping;
    request.id = next_id_++;
    if (!sock_.send_all(frame_encode(encode_request(request))))
        return false;
    try {
        const Response resp = read_response();
        return resp.id == request.id && resp.status == "ok";
    } catch (const UserError &) {
        return false;
    }
}

} // namespace rake::serve
