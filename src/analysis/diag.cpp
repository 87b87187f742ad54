#include "analysis/diag.h"

#include <cstdio>
#include <ostream>
#include <sstream>

namespace bsr::analysis {

std::string to_string(Severity s) {
  switch (s) {
    case Severity::Warning: return "warning";
    case Severity::Error: return "error";
  }
  return "?";
}

std::string to_string(LintMode m) {
  switch (m) {
    case LintMode::Dynamic: return "dynamic";
    case LintMode::Static: return "static";
    case LintMode::Symbolic: return "symbolic";
    case LintMode::Both: return "both";
    case LintMode::Interference: return "interference";
    case LintMode::Steps: return "steps";
  }
  return "?";
}

std::string schedule_fingerprint(const std::vector<sim::Choice>& schedule) {
  // FNV-1a over the choice triples; stable across platforms by construction.
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t x) {
    h ^= x;
    h *= 0x100000001b3ull;
  };
  for (const sim::Choice& c : schedule) {
    mix(c.kind == sim::Choice::Kind::Step ? 1u : 2u);
    mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(c.pid)) + 1);
    mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(c.recv_from)) +
        2);
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return std::string(buf);
}

int ProtocolReport::errors() const {
  int n = 0;
  for (const Diagnostic& d : diagnostics) {
    if (d.severity == Severity::Error) ++n;
  }
  return n;
}

int ProtocolReport::warnings() const {
  int n = 0;
  for (const Diagnostic& d : diagnostics) {
    if (d.severity == Severity::Warning) ++n;
  }
  return n;
}

void TextSink::report(const ProtocolReport& r) {
  os_ << r.name << ": ";
  if (r.mode == LintMode::Interference) {
    os_ << "interference: " << r.interference_ops << " op site(s), "
        << r.interference_pairs << " cross-process pair(s), "
        << r.interference_independent << " independent";
    if (r.interference_truncated) os_ << " (detail truncated)";
    if (r.diagnostics.empty()) {
      os_ << ": clean\n";
      return;
    }
    os_ << "\n";
    for (const Diagnostic& d : r.diagnostics) {
      os_ << "  " << to_string(d.severity) << "[" << d.rule << "]";
      if (d.pid != -1) os_ << " p" << d.pid;
      if (d.reg != -1) os_ << " register '" << d.reg_name << "'";
      os_ << ": " << d.message << "\n";
    }
    return;
  }
  if (r.mode == LintMode::Steps) {
    // Step tier: the symbolic per-process bounds, the claim they were
    // proved against, and the dynamic observation they were checked
    // against — one row per process.
    os_ << r.executions
        << (r.sampled ? " sampled runs" : " executions explored")
        << " + step-bound audit, ";
    if (!r.step_claim_expr.empty()) {
      os_ << "claimed <= " << r.step_claim_expr << " steps/process";
    } else {
      os_ << "no finite step claim";
    }
    os_ << " [" << r.step_claim_source << "]";
    if (!r.step_verified.empty()) os_ << ", verified: " << r.step_verified;
    os_ << (r.diagnostics.empty() ? ": clean" : "") << "\n";
    for (const StepAudit& a : r.steps) {
      os_ << "  p" << a.pid << ": bound " << a.bound;
      if (a.serve) os_ << " (serve)";
      if (a.finite && std::to_string(a.bound_eval) != a.bound) {
        os_ << " (= " << a.bound_eval << " here)";
      }
      if (a.observed >= 0) os_ << ", observed max " << a.observed;
      if (!a.verified.empty()) os_ << ", verified: " << a.verified;
      os_ << "\n";
    }
    for (const Diagnostic& d : r.diagnostics) {
      os_ << "  " << to_string(d.severity) << "[" << d.rule << "]";
      if (d.pid != -1) os_ << " p" << d.pid;
      os_ << ": " << d.message << "\n";
    }
    return;
  }
  if (r.mode == LintMode::Static || r.mode == LintMode::Symbolic) {
    os_ << "static IR audit (0 executions), max derivable bounded bits ";
  } else {
    os_ << r.executions
        << (r.sampled ? " sampled runs" : " executions explored");
    if (r.mode == LintMode::Both) os_ << " + static IR audit";
    os_ << ", max bounded bits used ";
  }
  os_ << r.max_bounded_bits_used << "/" << r.claimed_register_bits;
  if (!r.claimed_bits_expr.empty()) os_ << " (= " << r.claimed_bits_expr << ")";
  os_ << " claimed [" << r.claim_source << "]";
  if (!r.claim_verified.empty()) os_ << ", verified: " << r.claim_verified;
  if (r.diagnostics.empty()) {
    os_ << ": clean\n";
    return;
  }
  os_ << "\n";
  for (const Diagnostic& d : r.diagnostics) {
    os_ << "  " << to_string(d.severity) << "[" << d.rule << "]";
    if (d.pid != -1) os_ << " p" << d.pid;
    if (d.reg != -1) os_ << " register '" << d.reg_name << "'";
    if (d.step != -1) os_ << " step " << d.step;
    if (!d.fingerprint.empty()) os_ << " sched " << d.fingerprint;
    os_ << ": " << d.message << "\n";
  }
}

void TextSink::close(int errors, int warnings) {
  os_ << "lint: " << errors << " error(s), " << warnings << " warning(s)\n";
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void JsonSink::report(const ProtocolReport& r) { reports_.push_back(r); }

void JsonSink::close(int errors, int warnings) {
  std::ostringstream os;
  os << "{\"protocols\":[";
  for (std::size_t i = 0; i < reports_.size(); ++i) {
    const ProtocolReport& r = reports_[i];
    if (i > 0) os << ",";
    os << "{\"name\":\"" << json_escape(r.name) << "\",\"mode\":\""
       << to_string(r.mode) << "\",\"claim_source\":\""
       << json_escape(r.claim_source) << "\",\"sampled\":"
       << (r.sampled ? "true" : "false") << ",\"executions\":" << r.executions
       << ",\"max_bounded_bits_used\":" << r.max_bounded_bits_used
       << ",\"claimed_register_bits\":" << r.claimed_register_bits
       << ",\"claimed_bits_expr\":\"" << json_escape(r.claimed_bits_expr)
       << "\",\"claim_verified\":\"" << json_escape(r.claim_verified)
       << "\",\"registers\":[";
    for (std::size_t j = 0; j < r.registers.size(); ++j) {
      const RegisterAudit& a = r.registers[j];
      if (j > 0) os << ",";
      os << "{\"index\":" << a.reg << ",\"name\":\"" << json_escape(a.name)
         << "\",\"writer\":" << a.writer
         << ",\"declared_bits\":" << a.declared_bits
         << ",\"write_once\":" << (a.write_once ? "true" : "false")
         << ",\"allows_bottom\":" << (a.allows_bottom ? "true" : "false")
         << ",\"max_bits\":" << a.max_bits
         << ",\"max_writes\":" << a.max_writes
         << ",\"read\":" << (a.read ? "true" : "false") << ",\"sym_bits\":\""
         << json_escape(a.sym_bits) << "\",\"verified\":\""
         << json_escape(a.verified) << "\"}";
    }
    os << "],\"diagnostics\":[";
    for (std::size_t j = 0; j < r.diagnostics.size(); ++j) {
      const Diagnostic& d = r.diagnostics[j];
      if (j > 0) os << ",";
      os << "{\"rule\":\"" << json_escape(d.rule) << "\",\"severity\":\""
         << to_string(d.severity) << "\",\"pid\":" << d.pid
         << ",\"register\":" << d.reg << ",\"register_name\":\""
         << json_escape(d.reg_name) << "\",\"step\":" << d.step
         << ",\"fingerprint\":\"" << json_escape(d.fingerprint)
         << "\",\"message\":\"" << json_escape(d.message) << "\"}";
    }
    os << "]";
    if (r.mode == LintMode::Interference) {
      // Interference tier: totals over the full op-pair relation plus the
      // (possibly truncated) pair detail. Documented in docs/ANALYSIS.md.
      os << ",\"interference\":{\"ops\":" << r.interference_ops
         << ",\"pairs\":" << r.interference_pairs
         << ",\"independent\":" << r.interference_independent
         << ",\"truncated\":" << (r.interference_truncated ? "true" : "false")
         << ",\"detail\":[";
      for (std::size_t j = 0; j < r.interference.size(); ++j) {
        const InterferencePair& p = r.interference[j];
        if (j > 0) os << ",";
        os << "{\"a\":\"" << json_escape(p.a) << "\",\"b\":\""
           << json_escape(p.b) << "\",\"independent\":"
           << (p.independent ? "true" : "false") << ",\"reason\":\""
           << json_escape(p.reason) << "\"}";
      }
      os << "]}";
    }
    if (r.mode == LintMode::Steps) {
      // Step tier: the claim, the aggregate verdict, and one row per
      // process. Documented in docs/ANALYSIS.md.
      os << ",\"steps\":{\"claim\":\"" << json_escape(r.step_claim_expr)
         << "\",\"claim_source\":\"" << json_escape(r.step_claim_source)
         << "\",\"verified\":\"" << json_escape(r.step_verified)
         << "\",\"processes\":[";
      for (std::size_t j = 0; j < r.steps.size(); ++j) {
        const StepAudit& a = r.steps[j];
        if (j > 0) os << ",";
        os << "{\"pid\":" << a.pid << ",\"bound\":\"" << json_escape(a.bound)
           << "\",\"finite\":" << (a.finite ? "true" : "false")
           << ",\"serve\":" << (a.serve ? "true" : "false")
           << ",\"bound_eval\":" << a.bound_eval
           << ",\"observed\":" << a.observed << ",\"verified\":\""
           << json_escape(a.verified) << "\"}";
      }
      os << "]}";
    }
    os << "}";
  }
  os << "],\"errors\":" << errors << ",\"warnings\":" << warnings << "}";
  os_ << os.str() << "\n";
}

}  // namespace bsr::analysis
