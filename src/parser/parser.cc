#include "src/parser/parser.h"

#include <cstdio>
#include <cstdlib>
#include <unordered_map>
#include <vector>

#include "src/parser/lexer.h"

namespace cssame::parser {

namespace {

using ir::BinOp;
using ir::Expr;
using ir::ExprPtr;
using ir::Program;
using ir::Stmt;
using ir::StmtKind;
using ir::StmtList;
using ir::SymbolKind;
using ir::UnOp;

class Parser {
 public:
  Parser(std::vector<Token> tokens, DiagEngine& diag)
      : tokens_(std::move(tokens)), diag_(diag) {}

  Program run() {
    pushScope();
    parseItems(&prog_.body, /*stopAtBrace=*/false);
    popScope();
    return std::move(prog_);
  }

 private:
  // --- Token helpers --------------------------------------------------------

  [[nodiscard]] const Token& cur() const { return tokens_[pos_]; }
  [[nodiscard]] const Token& peek(std::size_t off = 1) const {
    const std::size_t idx = pos_ + off;
    return idx < tokens_.size() ? tokens_[idx] : tokens_.back();
  }
  [[nodiscard]] bool at(TokKind k) const { return cur().kind == k; }

  Token take() {
    Token t = cur();
    if (!at(TokKind::End)) ++pos_;
    return t;
  }

  bool accept(TokKind k) {
    if (!at(k)) return false;
    take();
    return true;
  }

  bool expect(TokKind k) {
    if (accept(k)) return true;
    error(std::string("expected ") + tokKindName(k) + " before " +
          tokKindName(cur().kind));
    return false;
  }

  void error(const std::string& msg) {
    diag_.error(DiagCode::SyntaxError, cur().loc, msg);
  }

  /// Error recovery: skip to the next ';' or '}' boundary.
  void synchronize() {
    while (!at(TokKind::End) && !at(TokKind::Semi) && !at(TokKind::RBrace))
      take();
    accept(TokKind::Semi);
  }

  // --- Scopes ---------------------------------------------------------------

  void pushScope() { scopes_.emplace_back(); }
  void popScope() { scopes_.pop_back(); }

  SymbolId declare(const std::string& name, SymbolKind kind, SourceLoc loc,
                   std::uint32_t arraySize = 0) {
    auto& scope = scopes_.back();
    if (scope.contains(name)) {
      diag_.error(DiagCode::Redeclaration, loc,
                  "redeclaration of '" + name + "' in the same scope");
      return scope[name];
    }
    const bool shared = threadDepth_ == 0;
    const SymbolId id =
        arraySize > 0
            ? prog_.symbols.createArray(name, arraySize, shared, loc)
            : prog_.symbols.create(name, kind, shared, loc);
    scope[name] = id;
    declDepth_.resize(prog_.symbols.size(), 0);
    declDepth_[id.index()] = threadDepth_;
    return id;
  }

  [[nodiscard]] SymbolId lookup(const std::string& name) const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      auto found = it->find(name);
      if (found != it->end()) return found->second;
    }
    return SymbolId{};
  }

  /// Resolves a variable-position identifier; reports and fabricates a
  /// symbol on failure so parsing can continue.
  SymbolId resolveVar(const Token& tok, SymbolKind expected) {
    SymbolId id = lookup(tok.text);
    if (!id.valid()) {
      diag_.error(DiagCode::UndeclaredIdentifier, tok.loc,
                  "use of undeclared identifier '" + tok.text + "'");
      return prog_.symbols.create(tok.text, expected,
                                  /*shared=*/threadDepth_ == 0, tok.loc);
    }
    if (prog_.symbols[id].kind != expected) {
      diag_.error(DiagCode::WrongSymbolKind, tok.loc,
                  "'" + tok.text + "' is a " +
                      symbolKindName(prog_.symbols[id].kind) + ", expected " +
                      symbolKindName(expected));
    }
    // A thread-local that a nested thread references is reachable from
    // concurrent arms of the inner cobegin/doall: it is shared there.
    if (expected == SymbolKind::Var && id.index() < declDepth_.size() &&
        declDepth_[id.index()] < threadDepth_)
      prog_.symbols[id].shared = true;
    return id;
  }

  SymbolId resolveFunction(const Token& tok) {
    // An identifier already visible as a variable/lock/event cannot be
    // called; otherwise it implicitly declares an external function.
    SymbolId id = lookup(tok.text);
    if (id.valid()) {
      if (prog_.symbols[id].kind != SymbolKind::Function)
        diag_.error(DiagCode::WrongSymbolKind, tok.loc,
                    "'" + tok.text + "' is not a function");
      return id;
    }
    auto it = functions_.find(tok.text);
    if (it != functions_.end()) return it->second;
    const SymbolId fn =
        prog_.symbols.create(tok.text, SymbolKind::Function, true, tok.loc);
    functions_[tok.text] = fn;
    return fn;
  }

  // --- Items ------------------------------------------------------------------

  void parseItems(StmtList* list, bool stopAtBrace) {
    while (!at(TokKind::End) && !(stopAtBrace && at(TokKind::RBrace))) {
      parseItem(list);
    }
  }

  void parseItem(StmtList* list) {
    switch (cur().kind) {
      case TokKind::KwInt:
        parseVarDecl(list);
        return;
      case TokKind::KwLock:
        // 'lock x;' declares; 'lock(x);' is a statement.
        if (peek().kind == TokKind::LParen)
          parseSyncStmt(list, StmtKind::Lock, SymbolKind::Lock);
        else
          parseSyncDecl(SymbolKind::Lock);
        return;
      case TokKind::KwEvent:
        parseSyncDecl(SymbolKind::Event);
        return;
      default:
        parseStmt(list);
        return;
    }
  }

  void parseVarDecl(StmtList* list) {
    take();  // 'int'
    do {
      if (!at(TokKind::Ident)) {
        error("expected variable name in declaration");
        synchronize();
        return;
      }
      const Token nameTok = take();
      // `int a[N];` — fixed-size array. The size must be a positive
      // integer literal (the analyses collapse all cells into one
      // abstract location, but the interpreter models each cell).
      if (at(TokKind::LBracket)) {
        take();
        constexpr long long kMaxArraySize = 1024;
        long long size = 0;
        if (at(TokKind::IntLit)) {
          size = take().intValue;
        } else {
          error("array size must be an integer literal");
        }
        expect(TokKind::RBracket);
        if (size < 1 || size > kMaxArraySize) {
          error("array size must be between 1 and " +
                std::to_string(kMaxArraySize));
          size = 1;
        }
        declare(nameTok.text, SymbolKind::Var, nameTok.loc,
                static_cast<std::uint32_t>(size));
        if (at(TokKind::Assign))
          error("array declarations cannot have initializers");
        continue;
      }
      const SymbolId var = declare(nameTok.text, SymbolKind::Var, nameTok.loc);
      if (accept(TokKind::Assign)) {
        ExprPtr init = parseExpr();
        auto s = prog_.newStmt(StmtKind::Assign, nameTok.loc);
        s->lhs = var;
        s->expr = std::move(init);
        list->push_back(std::move(s));
      }
    } while (accept(TokKind::Comma));
    expect(TokKind::Semi);
  }

  void parseSyncDecl(SymbolKind kind) {
    take();  // 'lock' | 'event'
    do {
      if (!at(TokKind::Ident)) {
        error("expected name in declaration");
        synchronize();
        return;
      }
      const Token nameTok = take();
      declare(nameTok.text, kind, nameTok.loc);
    } while (accept(TokKind::Comma));
    expect(TokKind::Semi);
  }

  void parseSyncStmt(StmtList* list, StmtKind kind, SymbolKind symKind) {
    const SourceLoc loc = cur().loc;
    take();  // keyword
    expect(TokKind::LParen);
    if (!at(TokKind::Ident)) {
      error("expected synchronization variable");
      synchronize();
      return;
    }
    const Token nameTok = take();
    const SymbolId sym = resolveVar(nameTok, symKind);
    expect(TokKind::RParen);
    expect(TokKind::Semi);
    auto s = prog_.newStmt(kind, loc);
    s->sync = sym;
    list->push_back(std::move(s));
  }

  void parseStmt(StmtList* list) {
    const SourceLoc loc = cur().loc;
    switch (cur().kind) {
      case TokKind::Ident: {
        const Token nameTok = take();
        // `a[i] = e;` — array-cell store.
        if (at(TokKind::LBracket)) {
          take();
          ExprPtr idx = parseExpr();
          expect(TokKind::RBracket);
          const SymbolId arr = resolveVar(nameTok, SymbolKind::Var);
          if (prog_.symbols[arr].kind == SymbolKind::Var &&
              !prog_.symbols[arr].isArray())
            diag_.error(DiagCode::WrongSymbolKind, nameTok.loc,
                        "'" + nameTok.text + "' is not an array");
          expect(TokKind::Assign);
          ExprPtr value = parseExpr();
          expect(TokKind::Semi);
          auto s = prog_.newStmt(StmtKind::Assign, loc);
          s->lhs = arr;
          s->lhsKind = ir::LValueKind::Index;
          s->lhsAddr = std::move(idx);
          s->expr = std::move(value);
          list->push_back(std::move(s));
          return;
        }
        if (at(TokKind::Assign)) {
          take();
          const SymbolId var = resolveVar(nameTok, SymbolKind::Var);
          // `x = atomic_load(y);` — an atomic Assign whose value is the
          // bare variable read. Only the statement form is atomic; the
          // keyword is not a general expression.
          if (at(TokKind::KwAtomicLoad)) {
            take();
            expect(TokKind::LParen);
            if (!at(TokKind::Ident)) {
              error("expected variable in atomic_load");
              synchronize();
              return;
            }
            const Token srcTok = take();
            const SymbolId src = resolveVar(srcTok, SymbolKind::Var);
            expect(TokKind::RParen);
            expect(TokKind::Semi);
            auto s = prog_.newStmt(StmtKind::Assign, loc);
            s->lhs = var;
            s->expr = ir::makeVar(src, srcTok.loc);
            s->atomic = true;
            list->push_back(std::move(s));
            return;
          }
          ExprPtr value = parseExpr();
          expect(TokKind::Semi);
          auto s = prog_.newStmt(StmtKind::Assign, loc);
          s->lhs = var;
          s->expr = std::move(value);
          list->push_back(std::move(s));
        } else if (at(TokKind::LParen)) {
          const SymbolId fn = resolveFunction(nameTok);
          ExprPtr callExpr = parseCallArgs(fn, nameTok.loc);
          expect(TokKind::Semi);
          auto s = prog_.newStmt(StmtKind::CallStmt, loc);
          s->expr = std::move(callExpr);
          list->push_back(std::move(s));
        } else {
          error("expected '=' or '(' after identifier");
          synchronize();
        }
        return;
      }
      case TokKind::KwIf: {
        take();
        expect(TokKind::LParen);
        ExprPtr cond = parseExpr();
        expect(TokKind::RParen);
        auto s = prog_.newStmt(StmtKind::If, loc);
        s->expr = std::move(cond);
        Stmt* raw = list->emplace_back(std::move(s)).get();
        parseBlock(&raw->thenBody);
        if (accept(TokKind::KwElse)) parseBlock(&raw->elseBody);
        return;
      }
      case TokKind::KwWhile: {
        take();
        expect(TokKind::LParen);
        ExprPtr cond = parseExpr();
        expect(TokKind::RParen);
        auto s = prog_.newStmt(StmtKind::While, loc);
        s->expr = std::move(cond);
        Stmt* raw = list->emplace_back(std::move(s)).get();
        parseBlock(&raw->thenBody);
        return;
      }
      case TokKind::KwCobegin: {
        take();
        expect(TokKind::LBrace);
        auto s = prog_.newStmt(StmtKind::Cobegin, loc);
        Stmt* raw = list->emplace_back(std::move(s)).get();
        while (at(TokKind::KwThread)) {
          take();
          std::string name;
          if (at(TokKind::Ident)) name = take().text;
          raw->threads.push_back(ir::ThreadBody{std::move(name), {}});
          ++threadDepth_;
          parseBlock(&raw->threads.back().body);
          --threadDepth_;
        }
        if (raw->threads.empty())
          error("cobegin requires at least one 'thread' block");
        expect(TokKind::RBrace);
        return;
      }
      case TokKind::KwUnlock:
        parseSyncStmt(list, StmtKind::Unlock, SymbolKind::Lock);
        return;
      case TokKind::KwSet:
        parseSyncStmt(list, StmtKind::Set, SymbolKind::Event);
        return;
      case TokKind::KwWait:
        parseSyncStmt(list, StmtKind::Wait, SymbolKind::Event);
        return;
      case TokKind::KwPrint:
      case TokKind::KwAssert: {
        const StmtKind kind = cur().kind == TokKind::KwPrint
                                  ? StmtKind::Print
                                  : StmtKind::Assert;
        take();
        expect(TokKind::LParen);
        ExprPtr value = parseExpr();
        expect(TokKind::RParen);
        expect(TokKind::Semi);
        auto s = prog_.newStmt(kind, loc);
        s->expr = std::move(value);
        list->push_back(std::move(s));
        return;
      }
      case TokKind::LBrace:
        // Bare block: new scope, statements appended in place.
        parseBlock(list);
        return;
      case TokKind::KwBarrier: {
        take();
        expect(TokKind::Semi);
        list->push_back(prog_.newStmt(StmtKind::Barrier, loc));
        return;
      }
      case TokKind::KwFence: {
        take();
        expect(TokKind::Semi);
        list->push_back(prog_.newStmt(StmtKind::Fence, loc));
        return;
      }
      case TokKind::KwAtomicStore: {
        take();
        expect(TokKind::LParen);
        if (!at(TokKind::Ident)) {
          error("expected variable in atomic_store");
          synchronize();
          return;
        }
        const Token nameTok = take();
        const SymbolId var = resolveVar(nameTok, SymbolKind::Var);
        expect(TokKind::Comma);
        ExprPtr value = parseExpr();
        expect(TokKind::RParen);
        expect(TokKind::Semi);
        auto s = prog_.newStmt(StmtKind::Assign, loc);
        s->lhs = var;
        s->expr = std::move(value);
        s->atomic = true;
        list->push_back(std::move(s));
        return;
      }
      case TokKind::KwDoall:
        parseDoall(list);
        return;
      case TokKind::Star: {
        // `*addr = e;` — store through a pointer. The address expression
        // binds like the unary deref operator, so `**q = e` nests.
        take();
        ExprPtr addr = parseUnary();
        expect(TokKind::Assign);
        ExprPtr value = parseExpr();
        expect(TokKind::Semi);
        auto s = prog_.newStmt(StmtKind::Assign, loc);
        s->lhsKind = ir::LValueKind::Deref;
        s->lhsAddr = std::move(addr);
        s->expr = std::move(value);
        list->push_back(std::move(s));
        return;
      }
      default:
        error(std::string("unexpected ") + tokKindName(cur().kind));
        take();
        synchronize();
        return;
    }
  }

  /// doall parallel loops (paper Section 6: supported via language
  /// macros). `doall i = lo, hi { body }` expands, macro-style, into a
  /// cobegin with one thread per iteration; each thread declares a
  /// private copy of the index variable bound to its iteration value.
  /// Bounds must be integer literals so the trip count is known at
  /// parse time.
  void parseDoall(StmtList* list) {
    const SourceLoc loc = cur().loc;
    take();  // 'doall'
    if (!at(TokKind::Ident)) {
      error("expected index variable after 'doall'");
      synchronize();
      return;
    }
    const Token nameTok = take();
    expect(TokKind::Assign);
    long long lo = 0, hi = 0;
    if (!parseIntBound(&lo)) return;
    expect(TokKind::Comma);
    if (!parseIntBound(&hi)) return;
    if (!at(TokKind::LBrace)) {
      error("expected '{' after doall bounds");
      synchronize();
      return;
    }

    const long long trip = hi - lo + 1;
    constexpr long long kMaxTrip = 64;
    if (trip < 1 || trip > kMaxTrip) {
      error("doall trip count must be between 1 and " +
            std::to_string(kMaxTrip));
      skipBlock();
      return;
    }

    auto s = prog_.newStmt(StmtKind::Cobegin, loc);
    Stmt* raw = list->emplace_back(std::move(s)).get();
    const std::size_t bodyStart = pos_;
    const std::size_t errsBefore = diag_.errorCount();
    for (long long iter = 0; iter < trip; ++iter) {
      // A syntax error inside the body would repeat once per iteration;
      // stop expanding after the first faulty copy.
      if (iter > 0 && diag_.errorCount() > errsBefore) break;
      pos_ = bodyStart;  // re-parse the body for each iteration
      raw->threads.push_back(
          ir::ThreadBody{nameTok.text + std::to_string(lo + iter), {}});
      ir::StmtList& body = raw->threads.back().body;
      ++threadDepth_;
      pushScope();
      // Fresh private index symbol per iteration, bound to its value.
      const SymbolId idx =
          declare(nameTok.text, SymbolKind::Var, nameTok.loc);
      auto init = prog_.newStmt(StmtKind::Assign, nameTok.loc);
      init->lhs = idx;
      init->expr = ir::makeInt(lo + iter, nameTok.loc);
      body.push_back(std::move(init));
      parseBlock(&body);
      popScope();
      --threadDepth_;
    }
  }

  bool parseIntBound(long long* out) {
    bool negative = accept(TokKind::Minus);
    if (!at(TokKind::IntLit)) {
      error("doall bounds must be integer literals");
      synchronize();
      return false;
    }
    const Token t = take();
    *out = negative ? -t.intValue : t.intValue;
    return true;
  }

  /// Skips a balanced { ... } block during error recovery.
  void skipBlock() {
    if (!at(TokKind::LBrace)) return;
    int depth = 0;
    do {
      if (at(TokKind::LBrace)) ++depth;
      if (at(TokKind::RBrace)) --depth;
      take();
    } while (depth > 0 && !at(TokKind::End));
  }

  void parseBlock(StmtList* list) {
    expect(TokKind::LBrace);
    pushScope();
    parseItems(list, /*stopAtBrace=*/true);
    popScope();
    expect(TokKind::RBrace);
  }

  // --- Expressions (precedence climbing) -------------------------------------

  ExprPtr parseExpr() { return parseBinary(0); }

  struct OpInfo {
    BinOp op;
    int prec;
  };

  [[nodiscard]] static bool binaryOpOf(TokKind k, OpInfo* out) {
    switch (k) {
      case TokKind::OrOr: *out = {BinOp::Or, 1}; return true;
      case TokKind::AndAnd: *out = {BinOp::And, 2}; return true;
      case TokKind::EqEq: *out = {BinOp::Eq, 3}; return true;
      case TokKind::Ne: *out = {BinOp::Ne, 3}; return true;
      case TokKind::Lt: *out = {BinOp::Lt, 4}; return true;
      case TokKind::Le: *out = {BinOp::Le, 4}; return true;
      case TokKind::Gt: *out = {BinOp::Gt, 4}; return true;
      case TokKind::Ge: *out = {BinOp::Ge, 4}; return true;
      case TokKind::Plus: *out = {BinOp::Add, 5}; return true;
      case TokKind::Minus: *out = {BinOp::Sub, 5}; return true;
      case TokKind::Star: *out = {BinOp::Mul, 6}; return true;
      case TokKind::Slash: *out = {BinOp::Div, 6}; return true;
      case TokKind::Percent: *out = {BinOp::Mod, 6}; return true;
      default: return false;
    }
  }

  ExprPtr parseBinary(int minPrec) {
    ExprPtr lhs = parseUnary();
    OpInfo info;
    while (binaryOpOf(cur().kind, &info) && info.prec >= minPrec) {
      const SourceLoc loc = cur().loc;
      take();
      ExprPtr rhs = parseBinary(info.prec + 1);  // left-associative
      lhs = ir::makeBinary(info.op, std::move(lhs), std::move(rhs), loc);
    }
    return lhs;
  }

  ExprPtr parseUnary() {
    const SourceLoc loc = cur().loc;
    if (accept(TokKind::Minus))
      return ir::makeUnary(UnOp::Neg, parseUnary(), loc);
    if (accept(TokKind::Bang))
      return ir::makeUnary(UnOp::Not, parseUnary(), loc);
    if (accept(TokKind::Star)) return ir::makeDeref(parseUnary(), loc);
    if (accept(TokKind::Amp)) {
      // `&x`, `&a`, or `&a[i]` — the operand of & must name a variable.
      if (!at(TokKind::Ident)) {
        error("expected variable after '&'");
        return ir::makeInt(0, loc);
      }
      const Token t = take();
      const SymbolId var = resolveVar(t, SymbolKind::Var);
      ExprPtr idx;
      if (accept(TokKind::LBracket)) {
        idx = parseExpr();
        expect(TokKind::RBracket);
        if (prog_.symbols[var].kind == SymbolKind::Var &&
            !prog_.symbols[var].isArray())
          diag_.error(DiagCode::WrongSymbolKind, t.loc,
                      "'" + t.text + "' is not an array");
      }
      return ir::makeAddrOf(var, std::move(idx), loc);
    }
    return parsePrimary();
  }

  ExprPtr parseCallArgs(SymbolId fn, SourceLoc loc) {
    expect(TokKind::LParen);
    std::vector<ExprPtr> args;
    if (!at(TokKind::RParen)) {
      do {
        args.push_back(parseExpr());
      } while (accept(TokKind::Comma));
    }
    expect(TokKind::RParen);
    return ir::makeCall(fn, std::move(args), loc);
  }

  ExprPtr parsePrimary() {
    const SourceLoc loc = cur().loc;
    switch (cur().kind) {
      case TokKind::IntLit: {
        const Token t = take();
        return ir::makeInt(t.intValue, loc);
      }
      case TokKind::Ident: {
        const Token t = take();
        if (at(TokKind::LParen)) {
          const SymbolId fn = resolveFunction(t);
          return parseCallArgs(fn, loc);
        }
        const SymbolId var = resolveVar(t, SymbolKind::Var);
        if (accept(TokKind::LBracket)) {
          ExprPtr idx = parseExpr();
          expect(TokKind::RBracket);
          if (prog_.symbols[var].kind == SymbolKind::Var &&
              !prog_.symbols[var].isArray())
            diag_.error(DiagCode::WrongSymbolKind, t.loc,
                        "'" + t.text + "' is not an array");
          return ir::makeIndex(var, std::move(idx), loc);
        }
        if (prog_.symbols[var].kind == SymbolKind::Var &&
            prog_.symbols[var].isArray())
          diag_.error(DiagCode::WrongSymbolKind, t.loc,
                      "array '" + t.text +
                          "' needs an index here (use " + t.text +
                          "[i] or &" + t.text + ")");
        return ir::makeVar(var, loc);
      }
      case TokKind::LParen: {
        take();
        ExprPtr inner = parseExpr();
        expect(TokKind::RParen);
        return inner;
      }
      default:
        error(std::string("expected expression, found ") +
              tokKindName(cur().kind));
        take();
        return ir::makeInt(0, loc);
    }
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  DiagEngine& diag_;
  Program prog_;
  std::vector<std::unordered_map<std::string, SymbolId>> scopes_;
  std::unordered_map<std::string, SymbolId> functions_;
  int threadDepth_ = 0;
  /// Thread depth each declared symbol was declared at, by symbol index.
  std::vector<int> declDepth_;
};

}  // namespace

ir::Program parseProgram(std::string_view source, DiagEngine& diag) {
  LexResult lexed = lex(source);
  for (const auto& [loc, msg] : lexed.errors)
    diag.error(DiagCode::SyntaxError, loc, msg);
  return Parser(std::move(lexed.tokens), diag).run();
}

Status ParseResult::status() const {
  if (ok()) return Status::okStatus();
  for (const auto& d : diag.diagnostics())
    if (d.severity == DiagSeverity::Error)
      return Status(Fault{FaultKind::ParseError, "parse", d.str(), d.loc});
  return Status::fail(FaultKind::ParseError, "parse", "parse failed");
}

ParseResult parseChecked(std::string_view source) {
  ParseResult result;
  result.program = parseProgram(source, result.diag);
  return result;
}

ir::Program parseOrDie(std::string_view source) {
  ParseResult result = parseChecked(source);
  if (!result.ok()) {
    for (const auto& d : result.diag.diagnostics())
      std::fprintf(stderr, "%s\n", d.str().c_str());
    std::abort();
  }
  return std::move(result.program);
}

}  // namespace cssame::parser
