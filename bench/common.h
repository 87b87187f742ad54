// Shared table-printing and checking helpers for the reproduction benches.
//
// Every bench binary regenerates one figure/table/claim of the paper: it
// prints the reproduced series in a fixed-width table (with a `paper:`
// annotation giving the predicted shape) and checks each row against that
// prediction and against the exact counts EXPERIMENTS.md quotes. A
// mismatch goes to stderr and makes `main` exit non-zero, so each binary
// is a ctest under the `paper` label.
#pragma once

#include <iomanip>
#include <iostream>
#include <string>
#include <type_traits>
#include <vector>

namespace bsr::bench {

inline void banner(const std::string& title, const std::string& paper_claim) {
  std::cout << "\n== " << title << " ==\n";
  std::cout << "paper: " << paper_claim << "\n";
}

class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  Table& row(const std::vector<std::string>& cells) {
    rows_.push_back(cells);
    return *this;
  }

  void print() const {
    std::vector<std::size_t> width(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      width[c] = headers_[c].size();
    }
    for (const auto& r : rows_) {
      for (std::size_t c = 0; c < r.size() && c < width.size(); ++c) {
        width[c] = std::max(width[c], r[c].size());
      }
    }
    const auto line = [&](const std::vector<std::string>& cells) {
      std::cout << "  ";
      for (std::size_t c = 0; c < cells.size(); ++c) {
        std::cout << std::left << std::setw(static_cast<int>(width[c]) + 2)
                  << cells[c];
      }
      std::cout << "\n";
    };
    line(headers_);
    std::vector<std::string> dashes;
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      dashes.push_back(std::string(width[c], '-'));
    }
    line(dashes);
    for (const auto& r : rows_) line(r);
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

template <class T>
std::string str(const T& v) {
  if constexpr (std::is_same_v<T, std::string>) {
    return v;
  } else {
    return std::to_string(v);
  }
}

/// Mismatches `expect` has reported in this process.
inline int mismatches = 0;

/// Checks one figure of `row` against the value it must have; a mismatch
/// prints the row, the expected and the measured value to stderr and is
/// counted. `measured` converts to the type of `expected`.
template <class T>
void expect(const std::string& row, const T& expected,
            const std::type_identity_t<T>& measured) {
  if (expected == measured) return;
  ++mismatches;
  std::cerr << "MISMATCH " << row << ": expected " << std::boolalpha
            << expected << ", measured " << measured << "\n";
}

/// `main`'s return value: 0 when every check held.
inline int exit_status() { return mismatches == 0 ? 0 : 1; }

}  // namespace bsr::bench
