#include "text/term_vector.h"

#include <algorithm>
#include <cmath>

#include "text/porter_stemmer.h"
#include "text/stopwords.h"

namespace ibseg {

namespace {

bool term_less(const TermVector::Entry& e, TermId term) {
  return e.first < term;
}

}  // namespace

void TermVector::add(TermId term, double weight) {
  auto it = std::lower_bound(weights_.begin(), weights_.end(), term, term_less);
  if (it != weights_.end() && it->first == term) {
    it->second += weight;
  } else {
    weights_.emplace(it, term, weight);
  }
}

double TermVector::weight(TermId term) const {
  auto it = std::lower_bound(weights_.begin(), weights_.end(), term, term_less);
  return it != weights_.end() && it->first == term ? it->second : 0.0;
}

double TermVector::total_weight() const {
  double s = 0.0;
  for (const auto& [term, w] : weights_) s += w;
  return s;
}

double TermVector::cosine(const TermVector& a, const TermVector& b) {
  if (a.empty() || b.empty()) return 0.0;
  double dot = 0.0;
  auto ia = a.weights_.begin();
  auto ib = b.weights_.begin();
  while (ia != a.weights_.end() && ib != b.weights_.end()) {
    if (ia->first < ib->first) {
      ++ia;
    } else if (ib->first < ia->first) {
      ++ib;
    } else {
      dot += ia->second * ib->second;
      ++ia;
      ++ib;
    }
  }
  double na = 0.0;
  double nb = 0.0;
  for (const auto& [t, w] : a.weights_) na += w * w;
  for (const auto& [t, w] : b.weights_) nb += w * w;
  if (na == 0.0 || nb == 0.0) return 0.0;
  return dot / (std::sqrt(na) * std::sqrt(nb));
}

void TermVector::merge(const TermVector& other) {
  if (other.empty()) return;
  if (empty()) {
    weights_ = other.weights_;  // an exact-size copy
    return;
  }
  std::vector<Entry> merged;
  merged.reserve(weights_.size() + other.weights_.size());
  auto a = weights_.cbegin();
  auto b = other.weights_.cbegin();
  while (a != weights_.cend() && b != other.weights_.cend()) {
    if (a->first < b->first) {
      merged.push_back(*a++);
    } else if (b->first < a->first) {
      merged.push_back(*b++);
    } else {
      merged.emplace_back(a->first, a->second + b->second);
      ++a;
      ++b;
    }
  }
  merged.insert(merged.end(), a, weights_.cend());
  merged.insert(merged.end(), b, other.weights_.cend());
  weights_ = std::move(merged);
}

TermVector TermVector::count(std::vector<TermId> terms) {
  std::sort(terms.begin(), terms.end());
  size_t distinct = 0;
  for (size_t i = 0; i < terms.size(); ++i) {
    if (i == 0 || terms[i] != terms[i - 1]) ++distinct;
  }
  TermVector tv;
  tv.weights_.reserve(distinct);
  for (TermId t : terms) {
    if (tv.weights_.empty() || tv.weights_.back().first != t) {
      tv.weights_.emplace_back(t, 0.0);
    }
    tv.weights_.back().second += 1.0;
  }
  return tv;
}

void append_term_ids(const std::vector<Token>& tokens, size_t begin,
                     size_t end, Vocabulary& vocab, std::vector<TermId>* out) {
  for (size_t i = begin; i < end && i < tokens.size(); ++i) {
    const Token& t = tokens[i];
    if (t.kind == TokenKind::kPunctuation) continue;
    if (t.kind == TokenKind::kWord) {
      if (is_stopword(t.lower)) continue;
      out->push_back(vocab.intern(porter_stem(t.lower)));
    } else {
      out->push_back(vocab.intern(t.lower));  // numbers/units kept verbatim
    }
  }
}

TermVector build_term_vector(const std::vector<Token>& tokens, size_t begin,
                             size_t end, Vocabulary& vocab) {
  std::vector<TermId> ids;
  append_term_ids(tokens, begin, end, vocab, &ids);
  return TermVector::count(std::move(ids));
}

TermVector build_term_vector_lookup(const std::vector<Token>& tokens,
                                    size_t begin, size_t end,
                                    const Vocabulary& vocab) {
  std::vector<TermId> ids;
  for (size_t i = begin; i < end && i < tokens.size(); ++i) {
    const Token& t = tokens[i];
    if (t.kind == TokenKind::kPunctuation) continue;
    TermId id = kInvalidTerm;
    if (t.kind == TokenKind::kWord) {
      if (is_stopword(t.lower)) continue;
      id = vocab.find(porter_stem(t.lower));
    } else {
      id = vocab.find(t.lower);  // numbers/units kept verbatim
    }
    if (id != kInvalidTerm) ids.push_back(id);
  }
  return TermVector::count(std::move(ids));
}

}  // namespace ibseg
