// Serialization round-trip suite for the persistence codec (DESIGN.md §8):
// every storage type that reaches the WAL or a snapshot must decode back to
// an equal value, including across symbol tables whose interning order
// differs (the recovery situation). Also pins down the Transaction conflict
// invariant: an event set inserting AND deleting the same fact cannot be
// constructed, and bytes that claim one decode to kCorruption.

#include <gtest/gtest.h>

#include <string>

#include "persist/codec.h"
#include "storage/transaction.h"
#include "util/status.h"

namespace deddb::persist {
namespace {

Tuple T(SymbolTable* symbols, std::initializer_list<const char*> names) {
  Tuple t;
  for (const char* name : names) t.push_back(symbols->Intern(name));
  return t;
}

TEST(CodecPrimitivesTest, IntegersRoundTrip) {
  ByteSink sink;
  sink.PutU8(0xAB);
  sink.PutU32(0xDEADBEEF);
  sink.PutU64(0x0123456789ABCDEFull);
  sink.PutString("hello");
  sink.PutString("");
  ByteSource source(sink.bytes());
  EXPECT_EQ(source.GetU8().value(), 0xAB);
  EXPECT_EQ(source.GetU32().value(), 0xDEADBEEFu);
  EXPECT_EQ(source.GetU64().value(), 0x0123456789ABCDEFull);
  EXPECT_EQ(source.GetString().value(), "hello");
  EXPECT_EQ(source.GetString().value(), "");
  EXPECT_TRUE(source.exhausted());
}

TEST(CodecPrimitivesTest, TruncatedInputIsCorruption) {
  ByteSink sink;
  sink.PutU32(12);
  std::string bytes = sink.Take();
  ByteSource source(std::string_view(bytes).substr(0, 2));
  Result<uint32_t> value = source.GetU32();
  ASSERT_FALSE(value.ok());
  EXPECT_EQ(value.status().code(), StatusCode::kCorruption);

  // A string whose length prefix promises more bytes than exist.
  ByteSink lying;
  lying.PutU32(100);
  lying.PutU8('x');
  ByteSource lying_source(lying.bytes());
  Result<std::string> s = lying_source.GetString();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.status().code(), StatusCode::kCorruption);
}

TEST(CodecTest, TupleRoundTripsAcrossSymbolTables) {
  SymbolTable writer;
  Tuple original = T(&writer, {"Dolors", "Sales", "Dolors"});

  ByteSink sink;
  EncodeTuple(original, writer, &sink);
  std::string bytes = sink.Take();

  // The reader interns in a different order, so ids differ — names must
  // still match.
  SymbolTable reader;
  reader.Intern("Sales");
  ByteSource source(bytes);
  Tuple decoded = DecodeTuple(&source, &reader).value();
  ASSERT_EQ(decoded.size(), original.size());
  for (size_t i = 0; i < decoded.size(); ++i) {
    EXPECT_EQ(reader.NameOf(decoded[i]), writer.NameOf(original[i]));
  }
  EXPECT_EQ(decoded[0], decoded[2]);  // repeated constant stays shared
  EXPECT_TRUE(source.exhausted());
}

TEST(CodecTest, RelationRoundTrips) {
  SymbolTable symbols;
  Relation relation(2);
  relation.Insert(T(&symbols, {"A", "B"}));
  relation.Insert(T(&symbols, {"B", "C"}));
  relation.Insert(T(&symbols, {"A", "C"}));

  ByteSink sink;
  EncodeRelation(relation, symbols, &sink);
  ByteSource source(sink.bytes());
  Relation decoded = DecodeRelation(&source, &symbols).value();
  EXPECT_EQ(decoded, relation);
  EXPECT_TRUE(source.exhausted());
}

TEST(CodecTest, RelationEncodingIsDeterministic) {
  // Same set, different insertion order → identical bytes (sorted encode).
  SymbolTable symbols;
  Relation forward(1);
  forward.Insert(T(&symbols, {"A"}));
  forward.Insert(T(&symbols, {"B"}));
  forward.Insert(T(&symbols, {"C"}));
  Relation backward(1);
  backward.Insert(T(&symbols, {"C"}));
  backward.Insert(T(&symbols, {"A"}));
  backward.Insert(T(&symbols, {"B"}));

  ByteSink a, b;
  EncodeRelation(forward, symbols, &a);
  EncodeRelation(backward, symbols, &b);
  EXPECT_EQ(a.bytes(), b.bytes());
}

TEST(CodecTest, RelationCopyIsDeep) {
  // The asymmetry the round-trip suite uncovered: Relation's implicit copy
  // aliased the source's posting lists. A copy must answer indexed lookups
  // from its own storage even after the source dies.
  SymbolTable symbols;
  auto* source = new Relation(2);
  source->Insert(T(&symbols, {"A", "B"}));
  source->Insert(T(&symbols, {"A", "C"}));
  Relation copy(*source);
  delete source;
  EXPECT_EQ(copy.size(), 2u);
  EXPECT_EQ(copy.CountMatches({symbols.Intern("A"), std::nullopt}), 2u);
  copy.Insert(T(&symbols, {"D", "B"}));
  EXPECT_EQ(copy.CountMatches({std::nullopt, symbols.Intern("B")}), 2u);
}

TEST(CodecTest, ArityMismatchInsideRelationIsCorruption) {
  SymbolTable symbols;
  Relation relation(2);
  relation.Insert(T(&symbols, {"A", "B"}));
  ByteSink sink;
  EncodeRelation(relation, symbols, &sink);
  std::string bytes = sink.Take();
  // Patch the declared arity from 2 to 3 (first u32, little-endian).
  bytes[0] = 3;
  ByteSource source(bytes);
  Result<Relation> decoded = DecodeRelation(&source, &symbols);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
}

TEST(CodecTest, FactStoreRoundTripsAcrossSymbolTables) {
  SymbolTable writer;
  FactStore store;
  store.Add(writer.Intern("Works"), T(&writer, {"Dolors", "Sales"}));
  store.Add(writer.Intern("Works"), T(&writer, {"Joan", "Acct"}));
  store.Add(writer.Intern("La"), T(&writer, {"Dolors"}));

  ByteSink sink;
  EncodeFactStore(store, writer, &sink);
  SymbolTable reader;
  ByteSource source(sink.bytes());
  FactStore decoded = DecodeFactStore(&source, &reader).value();
  EXPECT_EQ(decoded.TotalFacts(), 3u);
  EXPECT_TRUE(decoded.Contains(reader.Intern("La"), T(&reader, {"Dolors"})));
  EXPECT_TRUE(decoded.Contains(reader.Intern("Works"),
                               T(&reader, {"Joan", "Acct"})));

  // Within one table, a re-encode of the decode is byte-identical.
  ByteSink again;
  EncodeFactStore(decoded, reader, &again);
  ByteSink direct;
  EncodeFactStore(store, writer, &direct);
  EXPECT_EQ(again.bytes(), direct.bytes());
}

TEST(CodecTest, TransactionMixedSetRoundTrips) {
  SymbolTable symbols;
  Transaction txn;
  ASSERT_TRUE(txn.AddInsert(symbols.Intern("Q"), T(&symbols, {"A"})).ok());
  ASSERT_TRUE(txn.AddInsert(symbols.Intern("R"), T(&symbols, {"B"})).ok());
  ASSERT_TRUE(txn.AddDelete(symbols.Intern("Q"), T(&symbols, {"C"})).ok());
  ASSERT_TRUE(
      txn.AddDelete(symbols.Intern("S"), T(&symbols, {"A", "B"})).ok());

  ByteSink sink;
  EncodeTransaction(txn, symbols, &sink);
  ByteSource source(sink.bytes());
  Transaction decoded = DecodeTransaction(&source, &symbols).value();
  EXPECT_EQ(decoded, txn);
  EXPECT_TRUE(source.exhausted());
}

TEST(CodecTest, EmptyTransactionRoundTrips) {
  SymbolTable symbols;
  Transaction txn;
  ByteSink sink;
  EncodeTransaction(txn, symbols, &sink);
  ByteSource source(sink.bytes());
  EXPECT_EQ(DecodeTransaction(&source, &symbols).value(), txn);
}

// ---- Satellite: the insert+delete-same-fact edge case -----------------------

TEST(TransactionConflictTest, OppositeEventIsRejectedDeterministically) {
  SymbolTable symbols;
  SymbolId q = symbols.Intern("Q");
  Tuple a = T(&symbols, {"A"});

  Transaction ins_first;
  ASSERT_TRUE(ins_first.AddInsert(q, a).ok());
  Status conflict = ins_first.AddDelete(q, a);
  EXPECT_EQ(conflict.code(), StatusCode::kInvalidArgument);
  // The failed add mutated nothing.
  EXPECT_EQ(ins_first.size(), 1u);
  EXPECT_TRUE(ins_first.ContainsInsert(q, a));

  Transaction del_first;
  ASSERT_TRUE(del_first.AddDelete(q, a).ok());
  EXPECT_EQ(del_first.AddInsert(q, a).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(del_first.size(), 1u);
}

TEST(TransactionConflictTest, DuplicateEventsNormalize) {
  SymbolTable symbols;
  SymbolId q = symbols.Intern("Q");
  Tuple a = T(&symbols, {"A"});
  Transaction txn;
  ASSERT_TRUE(txn.AddInsert(q, a).ok());
  ASSERT_TRUE(txn.AddInsert(q, a).ok());  // idempotent, not an error
  ASSERT_TRUE(txn.AddDelete(q, T(&symbols, {"B"})).ok());
  ASSERT_TRUE(txn.AddDelete(q, T(&symbols, {"B"})).ok());
  EXPECT_EQ(txn.size(), 2u);

  // Normalized sets encode identically to a transaction built without the
  // duplicates.
  Transaction plain;
  ASSERT_TRUE(plain.AddInsert(q, a).ok());
  ASSERT_TRUE(plain.AddDelete(q, T(&symbols, {"B"})).ok());
  ByteSink with_dups, without;
  EncodeTransaction(txn, symbols, &with_dups);
  EncodeTransaction(plain, symbols, &without);
  EXPECT_EQ(with_dups.bytes(), without.bytes());
}

TEST(TransactionConflictTest, MergeRejectsConflicts) {
  SymbolTable symbols;
  SymbolId q = symbols.Intern("Q");
  Tuple a = T(&symbols, {"A"});
  Transaction ins, del;
  ASSERT_TRUE(ins.AddInsert(q, a).ok());
  ASSERT_TRUE(del.AddDelete(q, a).ok());
  EXPECT_EQ(ins.Merge(del).code(), StatusCode::kInvalidArgument);
}

// Swaps the insert and delete sides. The conflict invariant is what keeps
// every Add below from failing.
Transaction Inverse(const Transaction& txn) {
  Transaction inverse;
  txn.inserts().ForEach([&](SymbolId pred, const Tuple& t) {
    EXPECT_TRUE(inverse.AddDelete(pred, t).ok());
  });
  txn.deletes().ForEach([&](SymbolId pred, const Tuple& t) {
    EXPECT_TRUE(inverse.AddInsert(pred, t).ok());
  });
  return inverse;
}

TEST(TransactionConflictTest, InverseIsAnExactInvolution) {
  SymbolTable symbols;
  Transaction txn;
  ASSERT_TRUE(txn.AddInsert(symbols.Intern("Q"), T(&symbols, {"A"})).ok());
  ASSERT_TRUE(txn.AddInsert(symbols.Intern("R"), T(&symbols, {"B"})).ok());
  ASSERT_TRUE(txn.AddDelete(symbols.Intern("Q"), T(&symbols, {"B"})).ok());

  Transaction inverse = Inverse(txn);
  EXPECT_EQ(inverse.size(), txn.size());
  EXPECT_TRUE(inverse.ContainsDelete(symbols.Intern("Q"),
                                     T(&symbols, {"A"})));
  EXPECT_TRUE(inverse.ContainsInsert(symbols.Intern("Q"),
                                     T(&symbols, {"B"})));
  EXPECT_NE(inverse, txn);
  EXPECT_EQ(Inverse(inverse), txn);

  // The involution also holds at the byte level.
  ByteSink original, twice;
  EncodeTransaction(txn, symbols, &original);
  EncodeTransaction(Inverse(Inverse(txn)), symbols, &twice);
  EXPECT_EQ(original.bytes(), twice.bytes());
}

TEST(TransactionConflictTest, ConflictingBytesDecodeToCorruption) {
  // Bytes claiming {ins Q(A)} and {del Q(A)} cannot come from a real
  // Transaction; the decoder must reject them rather than pick an order.
  SymbolTable symbols;
  Transaction ins, del;
  ASSERT_TRUE(ins.AddInsert(symbols.Intern("Q"), T(&symbols, {"A"})).ok());
  ASSERT_TRUE(del.AddDelete(symbols.Intern("Q"), T(&symbols, {"A"})).ok());
  ByteSink ins_sink, del_sink;
  EncodeTransaction(ins, symbols, &ins_sink);
  EncodeTransaction(del, symbols, &del_sink);
  // A transaction encodes as <insert fact list><delete fact list>; splice
  // the insert half of one with the delete half of the other. Each empty
  // fact list is a u64 zero (8 bytes).
  std::string ins_bytes = ins_sink.Take();  // <ins Q(A)><empty>
  std::string del_bytes = del_sink.Take();  // <empty><del Q(A)>
  std::string spliced = ins_bytes.substr(0, ins_bytes.size() - 8) +
                        del_bytes.substr(8);
  ByteSource source(spliced);
  Result<Transaction> decoded = DecodeTransaction(&source, &symbols);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
}

// ---- Datalog types ----------------------------------------------------------

TEST(CodecTest, RuleRoundTripsAcrossSymbolTables) {
  SymbolTable writer;
  // P(x) <- Q(x, C) & not R(x)
  Atom head(writer.Intern("P"),
            {Term::MakeVariable(writer.InternVar("x"))});
  Atom q(writer.Intern("Q"), {Term::MakeVariable(writer.InternVar("x")),
                              Term::MakeConstant(writer.Intern("C"))});
  Atom r(writer.Intern("R"), {Term::MakeVariable(writer.InternVar("x"))});
  Rule rule(head, {Literal(q, true), Literal(r, false)});

  ByteSink sink;
  EncodeRule(rule, writer, &sink);
  SymbolTable reader;
  ByteSource source(sink.bytes());
  Rule decoded = DecodeRule(&source, &reader).value();
  ASSERT_TRUE(source.exhausted());
  EXPECT_EQ(decoded.ToString(reader), rule.ToString(writer));
  EXPECT_EQ(decoded.body()[0].positive(), true);
  EXPECT_EQ(decoded.body()[1].positive(), false);
}

TEST(CodecTest, UnknownTermTagIsCorruption) {
  SymbolTable symbols;
  ByteSink sink;
  sink.PutU8(7);  // neither constant (0) nor variable (1)
  sink.PutString("x");
  ByteSource source(sink.bytes());
  Result<Term> term = DecodeTerm(&source, &symbols);
  ASSERT_FALSE(term.ok());
  EXPECT_EQ(term.status().code(), StatusCode::kCorruption);
}

}  // namespace
}  // namespace deddb::persist
