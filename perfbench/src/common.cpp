#include "common.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <sstream>
#include <thread>

#include "core/pipeline.hpp"
#include "datagen/rf_gen.hpp"
#include "gcn/serialize.hpp"

namespace pb {

double now() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

bool check_p99(const std::string& label, const std::vector<double>& v) {
  const double p99 = quantile(v, 0.99);
  const auto beyond = static_cast<std::size_t>(
      std::count_if(v.begin(), v.end(), [&](double x) { return x > p99; }));
  const double below = quantile(v, 0.985);
  const double above = quantile(v, 0.995);
  const bool enough = beyond >= 10;
  const bool one_mode = below > 0.0 && above / below < 2.0;
  std::fprintf(stderr,
               "gana_bench: %s p99 %.3f ms: %zu samples, %zu beyond; "
               "p98.5 %.3f / p99.5 %.3f ms -> %s\n",
               label.c_str(), p99, v.size(), beyond, below, above,
               enough && one_mode ? "inside one mode"
               : enough           ? "ON A MODE BOUNDARY"
                                  : "TOO FEW SAMPLES");
  return enough && one_mode;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) die("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, std::string_view data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  if (!out) die("cannot write " + path);
}

void make_dirs(const std::string& path) {
  std::string cur;
  std::stringstream ss(path);
  std::string part;
  if (!path.empty() && path[0] == '/') cur = "/";
  while (std::getline(ss, part, '/')) {
    if (part.empty()) continue;
    cur += part + "/";
    if (mkdir(cur.c_str(), 0755) != 0 && errno != EEXIST) {
      die("cannot create " + cur);
    }
  }
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string exe_dir() {
  char buf[4096];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) die("cannot resolve /proc/self/exe");
  std::string p(buf, static_cast<std::size_t>(n));
  return p.substr(0, p.rfind('/'));
}

namespace {

// Children are started by a spawner process that gana_bench forks first
// thing, while it is still small. Linux folds the RSS high-water mark
// of the address space a child replaces at exec into that child's
// ru_maxrss, so forking the system under test straight from the loaded
// benchmark would report the benchmark's own memory as the child's peak.
int g_request = -1;  ///< command pipe to the spawner (write end)
int g_reply = -1;    ///< reply pipe from the spawner (read end)
pid_t g_spawner = -1;

/// At exit: closing the command pipe makes the spawner exit; reap it.
void stop_spawner() {
  close(g_request);
  while (waitpid(g_spawner, nullptr, 0) < 0 && errno == EINTR) {
  }
}

void write_line(int fd, const std::string& line) {
  std::size_t off = 0;
  while (off < line.size()) {
    const ssize_t n = write(fd, line.data() + off, line.size() - off);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) _exit(2);
    off += static_cast<std::size_t>(n);
  }
}

/// One newline-terminated line without the newline; "" at EOF.
std::string read_line(int fd) {
  std::string line;
  char c;
  for (;;) {
    const ssize_t n = read(fd, &c, 1);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0 || c == '\n') return line;
    line.push_back(c);
  }
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string part;
  while (std::getline(ss, part, sep)) out.push_back(part);
  return out;
}

/// Serves "S\t<stdout path>\t<argv...>" (start; replies the pid) and
/// "W\t<pid>\t<nohang>" (reap; replies "<done> <status> <maxrss KiB>").
[[noreturn]] void spawner_loop(int in, int out) {
  for (;;) {
    const std::vector<std::string> f = split(read_line(in), '\t');
    if (f.empty()) _exit(0);  // the benchmark went away
    if (f[0] == "S" && f.size() >= 3) {
      const pid_t pid = fork();
      if (pid == 0) {
        prctl(PR_SET_PDEATHSIG, SIGKILL);
        const int fd = open(f[1].empty() ? "/dev/null" : f[1].c_str(),
                            O_WRONLY | O_CREAT | O_TRUNC, 0644);
        if (fd >= 0) {
          dup2(fd, STDOUT_FILENO);
          close(fd);
        }
        std::vector<char*> args;
        for (std::size_t i = 2; i < f.size(); ++i) {
          args.push_back(const_cast<char*>(f[i].c_str()));
        }
        args.push_back(nullptr);
        execv(args[0], args.data());
        static const char kMsg[] = "gana_bench: exec failed\n";
        (void)!write(STDERR_FILENO, kMsg, sizeof(kMsg) - 1);
        _exit(127);
      }
      write_line(out, std::to_string(pid) + "\n");
    } else if (f[0] == "W" && f.size() == 3) {
      rusage ru{};
      int status = 0;
      pid_t r;
      do {
        r = wait4(static_cast<pid_t>(std::stol(f[1])), &status,
                  f[2] == "1" ? WNOHANG : 0, &ru);
      } while (r < 0 && errno == EINTR);
      write_line(out, std::to_string(r > 0 ? 1 : 0) + " " + std::to_string(status) +
                          " " + std::to_string(ru.ru_maxrss) + "\n");
    } else {
      _exit(2);
    }
  }
}

Exit reap(const Child& c, bool nohang, bool* done) {
  write_line(g_request, "W\t" + std::to_string(c.pid) + "\t" + (nohang ? "1" : "0") +
                            "\n");
  const std::vector<std::string> f = split(read_line(g_reply), ' ');
  if (f.size() != 3) die("spawner went away");
  Exit e;
  *done = f[0] == "1";
  if (*done) {
    e.status = std::stoi(f[1]);
    e.wall = now() - c.start;
    e.maxrss_mb = std::stod(f[2]) / 1024.0;
  }
  return e;
}

}  // namespace

void start_spawner() {
  int request[2], reply[2];
  if (pipe2(request, O_CLOEXEC) != 0 || pipe2(reply, O_CLOEXEC) != 0) {
    die("pipe failed");
  }
  const pid_t pid = fork();
  if (pid < 0) die("fork failed");
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    close(request[1]);
    close(reply[0]);
    spawner_loop(request[0], reply[1]);
  }
  close(request[0]);
  close(reply[1]);
  g_request = request[1];
  g_reply = reply[0];
  g_spawner = pid;
  std::atexit(stop_spawner);
}

Child spawn(const std::vector<std::string>& argv,
            const std::string& stdout_path) {
  if (g_request < 0) die("spawn before start_spawner");
  Child c;
  c.start = now();
  std::string line = "S\t" + stdout_path;
  for (const std::string& a : argv) line += "\t" + a;
  write_line(g_request, line + "\n");
  c.pid = static_cast<pid_t>(std::stol(read_line(g_reply)));
  if (c.pid <= 0) die("cannot start " + argv[0]);
  return c;
}

bool Exit::ok() const { return WIFEXITED(status) && WEXITSTATUS(status) == 0; }

Exit wait_child(const Child& c) {
  bool done = false;
  Exit e = reap(c, false, &done);
  if (!done) die("wait4 failed");
  return e;
}

Exit stop_child(const Child& c, double grace) {
  kill(c.pid, SIGTERM);
  const double deadline = now() + grace;
  bool done = false;
  while (now() < deadline) {
    Exit e = reap(c, true, &done);
    if (done) return e;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  kill(c.pid, SIGKILL);
  return wait_child(c);
}

double self_maxrss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics, bool valid) {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) out << ", ";
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    out << "\"" << metrics[i].name << "\": {\"value\": " << v
        << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "}, \"valid\": " << (valid ? "true" : "false") << "}";
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
}

Truth truth_of(const gana::datagen::LabeledCircuit& c) {
  const gana::core::PreparedCircuit p = gana::core::prepare_circuit(c);
  Truth t;
  for (std::size_t v = 0; v < p.graph.vertex_count(); ++v) {
    const int cls = p.labels[v];
    if (cls >= 0 && static_cast<std::size_t>(cls) < c.class_names.size()) {
      t.emplace(p.graph.vertex(v).name,
                c.class_names[static_cast<std::size_t>(cls)]);
    }
  }
  return t;
}

namespace {

/// Reads a JSON string starting at the opening quote `s[i]`; returns
/// the index one past the closing quote. Escapes are kept verbatim
/// (circuit and class names are plain identifiers).
std::size_t read_string(std::string_view s, std::size_t i, std::string_view* out) {
  const std::size_t begin = i + 1;
  std::size_t j = begin;
  while (j < s.size() && s[j] != '"') j += s[j] == '\\' ? 2 : 1;
  *out = s.substr(begin, j - begin);
  return j + 1;
}

/// Walks the vertex list of an annotation JSON document and calls
/// `match(name, cls)` per vertex: -1 unlabeled, 0 wrong class, 1 right.
template <typename Match>
bool score_vertices(std::string_view json, Score& out, Match match) {
  static constexpr std::string_view kVertices = "\"vertices\":[";
  static constexpr std::string_view kName = "{\"name\":";
  static constexpr std::string_view kClass = "\"class\":";
  std::size_t i = json.find(kVertices);
  if (i == std::string_view::npos) return false;
  i += kVertices.size();
  while (i < json.size() && json[i] != ']') {
    if (json.compare(i, kName.size(), kName) != 0) return false;
    std::string_view name;
    i = read_string(json, i + kName.size(), &name);
    i = json.find(kClass, i);
    if (i == std::string_view::npos) return false;
    i += kClass.size();
    std::string_view cls;
    if (json[i] == '"') {
      i = read_string(json, i, &cls);
    } else {
      i += 4;  // null
    }
    i += 1;  // closing brace
    if (i < json.size() && json[i] == ',') ++i;
    const int m = match(name, cls);
    if (m >= 0) {
      ++out.labeled;
      out.correct += static_cast<std::uint64_t>(m);
    }
  }
  return true;
}

}  // namespace

bool score_annotation(std::string_view json, const Truth& truth, Score& out) {
  return score_vertices(json, out, [&](std::string_view name, std::string_view cls) {
    const auto it = truth.find(std::string(name));
    return it == truth.end() ? -1 : it->second == cls ? 1 : 0;
  });
}

HashedTruth hashed(const Truth& truth) {
  HashedTruth h;
  h.reserve(truth.size());
  for (const auto& [name, cls] : truth) h.emplace_back(fnv1a(name), fnv1a(cls));
  std::sort(h.begin(), h.end());
  return h;
}

bool score_annotation(std::string_view json, const HashedTruth& truth, Score& out) {
  return score_vertices(json, out, [&](std::string_view name, std::string_view cls) {
    const std::uint64_t key = fnv1a(name);
    const auto it = std::lower_bound(truth.begin(), truth.end(),
                                     std::make_pair(key, std::uint64_t{0}));
    return it == truth.end() || it->first != key ? -1 : it->second == fnv1a(cls) ? 1 : 0;
  });
}

void score_classes(const gana::graph::CircuitGraph& g,
                   const std::vector<int>& classes,
                   const std::vector<std::string>& class_names,
                   const Truth& truth, Score& out) {
  for (std::size_t v = 0; v < g.vertex_count(); ++v) {
    const auto it = truth.find(g.vertex(v).name);
    if (it == truth.end()) continue;
    ++out.labeled;
    const int c = classes[v];
    if (c >= 0 && static_cast<std::size_t>(c) < class_names.size() &&
        class_names[static_cast<std::size_t>(c)] == it->second) {
      ++out.correct;
    }
  }
}

std::unique_ptr<gana::gcn::GcnModel> load_model(const std::string& path) {
  auto m = gana::gcn::load_model_any(path);
  if (!m.ok()) die("cannot load model " + path + ": " + m.diag().render());
  return std::make_unique<gana::gcn::GcnModel>(m.take());
}

std::vector<std::string> domain_classes(const std::string& domain) {
  if (domain == "rf") return gana::datagen::rf_class_names();
  return {"ota", "bias"};
}

void die(const std::string& message) {
  std::fprintf(stderr, "gana_bench: %s\n", message.c_str());
  std::exit(2);
}

}  // namespace pb
