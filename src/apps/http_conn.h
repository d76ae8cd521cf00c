#ifndef DLINF_APPS_HTTP_CONN_H_
#define DLINF_APPS_HTTP_CONN_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

/// \file
/// The serving substrate of the sharded query engine (DESIGN.md §11): an
/// incremental HTTP/1.1 request parser, a non-blocking epoll event loop with
/// keep-alive and pipelining, and a small blocking client for tests, the
/// load generator and the chaos runner.
///
/// Split of responsibilities:
///  - `HttpParser` turns an arbitrary byte stream into complete requests. It
///    is strict about malformed input (oversized lines, bad chunked framing,
///    absurd Content-Length) and *always* degrades to a typed error status —
///    it never CHECK-aborts, whatever the bytes (see
///    tests/http_parser_test.cc).
///  - `HttpServer` owns the listening socket, an epoll loop and every
///    connection. All connection state is touched only by the loop thread;
///    handlers may finish a response asynchronously from any thread through
///    `ResponseHandle`, which posts the bytes back to the loop via an
///    eventfd. Pipelined requests on one connection are answered strictly in
///    request order regardless of the order handlers complete.
///  - `HttpClient` is a deliberately simple blocking keep-alive client: it
///    exists so the deterministic concurrency tests and `tools/load_gen` can
///    drive the server with pipelined request batches without a dependency.

namespace dlinf {
namespace apps {

/// One parsed request. Header names are lowercased; values are trimmed.
struct HttpRequest {
  std::string method;  ///< "GET", "HEAD" or "POST".
  std::string target;  ///< Raw request target, e.g. "/query?address_id=7".
  std::string path;    ///< Target up to (excluding) '?'.
  std::string query;   ///< Target after '?' ("" when absent).
  int minor_version = 1;  ///< HTTP/1.<minor>; only 0 and 1 are accepted.
  bool keep_alive = true;
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;

  /// First value of header `name` (lowercase), nullptr when absent.
  const std::string* FindHeader(const std::string& name) const;

  /// Value of `key` in the query string ("k1=v1&k2=v2"), nullptr if absent.
  /// Returned pointer is into an internal decoded cache; no %-decoding is
  /// performed (the API uses only numeric parameters).
  bool QueryParam(const std::string& key, std::string* value) const;
};

/// Hard limits the parser enforces; exceeding one is a typed parse error
/// (413/431), never unbounded buffering.
struct HttpParserLimits {
  size_t max_line_bytes = 8192;     ///< Request line and each header line.
  size_t max_header_bytes = 16384;  ///< Whole header block.
  size_t max_headers = 64;
  size_t max_body_bytes = 1 << 20;  ///< Declared or chunked-decoded body.
};

/// Incremental request parser. Feed() bytes as they arrive, then call
/// Next() until it stops returning kRequest. After kError the parser is
/// poisoned: the connection must send `error_status()` and close.
class HttpParser {
 public:
  enum class Status { kNeedMore, kRequest, kError };

  explicit HttpParser(const HttpParserLimits& limits = {}) : limits_(limits) {}

  void Feed(const char* data, size_t size) { buffer_.append(data, size); }

  Status Next(HttpRequest* out);

  /// HTTP status describing the parse failure (400, 413, 431, 501, 505).
  int error_status() const { return error_status_; }
  const std::string& error_reason() const { return error_reason_; }

  size_t buffered_bytes() const { return buffer_.size(); }

 private:
  enum class Phase { kHeaders, kBody, kChunkSize, kChunkData, kChunkEnd,
                     kTrailers };

  Status Fail(int status, const std::string& reason);
  Status ParseHeaderBlock(size_t block_end, size_t consumed);

  HttpParserLimits limits_;
  std::string buffer_;
  Phase phase_ = Phase::kHeaders;
  HttpRequest pending_;
  size_t body_remaining_ = 0;  ///< Content-Length or current-chunk bytes.
  size_t trailer_lines_ = 0;
  int error_status_ = 0;
  std::string error_reason_;
};

/// Serializes a full response with Content-Length (and `Connection: close`
/// when `keep_alive` is false). `head_only` omits the body bytes (HEAD).
/// `extra_headers` are emitted verbatim after the standard ones (used for
/// e.g. `Retry-After` on 429 backpressure responses).
std::string BuildHttpResponse(
    int status, const std::string& content_type, const std::string& body,
    bool keep_alive, bool head_only = false,
    const std::vector<std::pair<std::string, std::string>>& extra_headers =
        {});

/// Non-blocking epoll HTTP server. One loop thread owns all I/O; request
/// handlers run on the loop thread and either answer inline or hand the
/// `ResponseHandle` to another thread which completes it later. See the
/// file comment for the threading contract.
class HttpServer {
 public:
  struct Options {
    /// TCP port on 127.0.0.1; 0 picks an ephemeral port (see port()).
    int port = 0;
    /// A connection with no read/write progress for this long is closed —
    /// the slow-loris guard. Requests already dispatched to a handler are
    /// unaffected (their completion is progress).
    double idle_timeout_s = 30.0;
    int max_connections = 1024;
    HttpParserLimits limits;
    /// When nonempty, the event-loop thread registers under this name for
    /// thread naming, trace-track labels and CPU-profile sampling
    /// (obs::prof::RegisterCurrentThread).
    std::string thread_name;
  };

  /// Completion token for one request. Respond() may be called exactly once,
  /// from any thread; calling it after the connection died is safe (the
  /// bytes are dropped). Default-constructed handles are inert.
  class ResponseHandle {
   public:
    ResponseHandle() = default;

    void Respond(int status, const std::string& content_type,
                 const std::string& body) const;

    /// Respond with additional response headers (e.g. Retry-After).
    void RespondWithHeaders(
        int status, const std::string& content_type, const std::string& body,
        const std::vector<std::pair<std::string, std::string>>& extra_headers)
        const;

   private:
    friend class HttpServer;
    ResponseHandle(HttpServer* server, uint64_t conn_id, uint64_t seq,
                   bool keep_alive, bool head_only)
        : server_(server), conn_id_(conn_id), seq_(seq),
          keep_alive_(keep_alive), head_only_(head_only) {}

    HttpServer* server_ = nullptr;
    uint64_t conn_id_ = 0;
    uint64_t seq_ = 0;
    bool keep_alive_ = true;
    bool head_only_ = false;
  };

  using Handler = std::function<void(const HttpRequest&, ResponseHandle)>;

  HttpServer() = default;
  ~HttpServer();
  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds 127.0.0.1:port, spawns the loop thread. False (reason in *error)
  /// when the socket setup fails.
  bool Start(const Options& options, Handler handler,
             std::string* error = nullptr);

  /// Wakes the loop, joins it, closes every connection. Idempotent.
  void Stop();

  int port() const { return port_; }
  bool running() const { return running_.load(std::memory_order_acquire); }

 private:
  struct Pending {
    uint64_t seq = 0;
    bool ready = false;
    std::string bytes;
  };

  struct Conn {
    int fd = -1;
    uint64_t id = 0;
    HttpParser parser;
    std::deque<Pending> pending;  ///< Responses in request order.
    uint64_t next_seq = 0;
    std::string out;          ///< Bytes accepted by the kernel lag these.
    size_t out_offset = 0;
    bool close_after_flush = false;
    bool want_write = false;  ///< EPOLLOUT currently requested.
    double last_progress_s = 0.0;
  };

  struct Completion {
    uint64_t conn_id = 0;
    uint64_t seq = 0;
    std::string bytes;
  };

  void Loop();
  void AcceptNew();
  void HandleReadable(Conn* conn);
  void DispatchRequests(Conn* conn);
  void DrainCompletions();
  void FlushConn(Conn* conn);
  void UpdateEpollOut(Conn* conn);
  void CloseConn(uint64_t conn_id);
  void SweepIdle(double now_s);
  void Complete(uint64_t conn_id, uint64_t seq, std::string bytes);

  Options options_;
  Handler handler_;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  ///< eventfd: async completions + Stop.
  int port_ = 0;
  std::atomic<bool> running_{false};
  std::thread thread_;

  // Loop-thread-only state.
  std::unordered_map<uint64_t, std::unique_ptr<Conn>> conns_;
  uint64_t next_conn_id_ = 1;

  // Cross-thread completion queue (any thread -> loop thread).
  std::mutex completions_mu_;
  std::vector<Completion> completions_;
};

/// Blocking keep-alive client against 127.0.0.1 (tests / load_gen / chaos
/// only — the serving path never uses it). Supports sending several
/// pipelined requests before reading the responses back in order.
class HttpClient {
 public:
  HttpClient() = default;
  ~HttpClient() { Close(); }
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  bool Connect(int port, std::string* error = nullptr);

  /// Sends raw bytes (e.g. several pipelined GET requests at once).
  bool SendRaw(const std::string& bytes);

  /// Convenience: one "GET <target> HTTP/1.1" keep-alive request.
  bool SendGet(const std::string& target);

  /// One POST with a body (Content-Type application/json).
  bool SendPost(const std::string& target, const std::string& body);

  /// Reads exactly one response (headers + Content-Length body). Leftover
  /// bytes stay buffered for the next pipelined response. False on
  /// transport/parse failure or timeout.
  bool ReadResponse(int* status, std::string* body,
                    std::string* error = nullptr);

  /// Like ReadResponse but also returns the response headers (names
  /// lowercased, values trimmed) so callers can read e.g. Retry-After.
  bool ReadResponse(int* status,
                    std::vector<std::pair<std::string, std::string>>* headers,
                    std::string* body, std::string* error = nullptr);

  void Close();
  bool connected() const { return fd_ >= 0; }
  int fd() const { return fd_; }

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// Minimal one-shot GET helper (connect, request, read, close). Used by the
/// admin-route and server tests, the chaos drills' health probes and
/// load_gen's inventory discovery.
bool HttpGetOnce(int port, const std::string& path, int* status,
                 std::string* body);

}  // namespace apps
}  // namespace dlinf

#endif  // DLINF_APPS_HTTP_CONN_H_
