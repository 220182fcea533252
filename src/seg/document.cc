#include "seg/document.h"

#include <cassert>
#include <stdexcept>
#include <utility>

#include "nlp/cm_annotator.h"
#include "nlp/pos_tagger.h"
#include "obs/trace.h"

namespace ibseg {
namespace {

/// Heap bytes of a vector's allocation.
template <typename T>
size_t capacity_bytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

/// Heap bytes of a string: 0 while it fits the inline (small-string)
/// buffer, its allocation otherwise.
size_t capacity_bytes(const std::string& s) {
  constexpr size_t kInlineChars = std::string().capacity();
  return s.capacity() > kInlineChars ? s.capacity() + 1 : 0;
}

}  // namespace

const std::shared_ptr<const Document::Analysis>& Document::empty_analysis() {
  static const std::shared_ptr<const Analysis> kEmpty =
      std::make_shared<const Analysis>();
  return kEmpty;
}

const Document::Tokens& Document::empty_tokens() {
  static const Tokens kEmpty = std::make_shared<const std::vector<Token>>();
  return kEmpty;
}

Document::Document() : a_(empty_analysis()), tokens_(empty_tokens()) {}

Document::Document(Document&& other) noexcept
    : a_(std::exchange(other.a_, empty_analysis())),
      tokens_(std::exchange(other.tokens_, empty_tokens())) {}

Document& Document::operator=(Document&& other) noexcept {
  a_.swap(other.a_);
  tokens_.swap(other.tokens_);
  return *this;
}

const std::vector<Token>& Document::tokens() const {
  if (tokens_ == nullptr) {
    throw std::logic_error("Document " + std::to_string(id()) +
                           ": token array dropped; read index_tokens()");
  }
  return *tokens_;
}

std::shared_ptr<const std::vector<Token>> Document::index_tokens() const {
  if (tokens_ != nullptr) return tokens_;
  return std::make_shared<const std::vector<Token>>(tokenize(a_->text));
}

Document Document::analyze(DocId id, std::string text) {
  // The one place every document flows through — corpus load, ingest
  // prepare, external queries — so this scope IS the "analyze" stage.
  obs::TraceScope analyze_stage(obs::Stage::kAnalyze);
  auto a = std::make_shared<Analysis>();
  a->id = id;
  a->text = std::move(text);
  auto tokens = std::make_shared<std::vector<Token>>(tokenize(a->text));
  // tokenize grows its vector by doubling; the array lives until the post
  // is indexed, so drop the unused slots (~30% of them) once.
  tokens->shrink_to_fit();
  a->sentences = split_sentences(*tokens, a->text);
  a->unit_profiles =
      annotate_sentences(*tokens, tag_tokens(*tokens), a->sentences);

  a->prefix_profiles.resize(a->sentences.size() + 1);
  for (size_t i = 0; i < a->sentences.size(); ++i) {
    a->prefix_profiles[i + 1] = a->prefix_profiles[i];
    a->prefix_profiles[i + 1].merge(a->unit_profiles[i]);
  }

  a->footprint_bytes = sizeof(Analysis) + capacity_bytes(a->text) +
                       capacity_bytes(a->sentences) +
                       capacity_bytes(a->unit_profiles) +
                       capacity_bytes(a->prefix_profiles);
  return Document(std::move(a), std::move(tokens));
}

CmProfile Document::range_profile(size_t begin, size_t end) const {
  assert(begin <= end && end <= num_units());
  CmProfile p;
  for (size_t i = 0; i < p.counts.size(); ++i) {
    p.counts[i] =
        a_->prefix_profiles[end].counts[i] -
        a_->prefix_profiles[begin].counts[i];
    // Floating-point subtraction can leave tiny negatives; clamp.
    if (p.counts[i] < 0.0) p.counts[i] = 0.0;
  }
  return p;
}

size_t Document::border_char_offset(size_t u) const {
  assert(u <= num_units());
  if (num_units() == 0) return 0;
  if (u == num_units()) return a_->sentences.back().char_end;
  return a_->sentences[u].char_begin;
}

std::string_view Document::range_text(size_t begin, size_t end) const {
  assert(begin <= end && end <= num_units());
  if (begin == end) return {};
  size_t b = a_->sentences[begin].char_begin;
  size_t e = a_->sentences[end - 1].char_end;
  return std::string_view(a_->text).substr(b, e - b);
}

}  // namespace ibseg
