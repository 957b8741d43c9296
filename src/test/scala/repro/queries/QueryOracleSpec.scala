package repro.queries

import repro.{Oracle, SimTestKit, SparkSpec}
import repro.nexmark._

/** Three-way correctness: simulator sink digest == Spark (Catalyst)
  * reference == DuckDB SQL, for every NexMark query. A broken operator, a
  * wrong shuffle key, or a broken recovery path shows up as a diff here.
  */
class QueryOracleSpec extends SparkSpec {

  private val cfg = NexmarkConfig(400.0, 10_000_000L, seed = 7L)
  private lazy val evs = NexmarkGen.events(cfg)
  private lazy val evsPA = NexmarkGen.events(cfg.copy(include = Set("person", "auction")))
  private lazy val evsB  = NexmarkGen.events(cfg.copy(include = Set("bid")))

  test("NexmarkData exposes the three streams as DataFrames") {
    val evs5 = NexmarkGen.events(NexmarkConfig(500.0, 5_000_000L, seed = 5L))
    val p = NexmarkData.personsDf(spark, evs5)
    val a = NexmarkData.auctionsDf(spark, evs5)
    val b = NexmarkData.bidsDf(spark, evs5)
    assert(p.columns.toSet == Set("id", "name", "city", "state", "ts"))
    assert(a.columns.toSet == Set("id", "seller", "category", "ts", "expires"))
    assert(b.columns.toSet == Set("auction", "bidder", "price", "ts"))
    assert(p.count() + a.count() + b.count() == 2500L)
  }

  test("NexmarkData DataFrames are deterministic in the config") {
    val cfg9 = NexmarkConfig(200.0, 5_000_000L, seed = 9L)
    val c1 = NexmarkData.bidsDf(spark, NexmarkGen.events(cfg9)).collect().toSeq
    val c2 = NexmarkData.bidsDf(spark, NexmarkGen.events(cfg9)).collect().toSeq
    assert(c1 == c2)
  }

  test("Q1 Spark reference matches DuckDB") {
    Oracle.assertEquivalent(SparkRefs.q1(spark, evsB), SparkRefs.q1Sql,
      "bid" -> NexmarkData.bidsDf(spark, evsB))
  }

  test("Q3 Spark reference matches DuckDB") {
    Oracle.assertEquivalent(SparkRefs.q3(spark, evsPA), SparkRefs.q3Sql,
      "person" -> NexmarkData.personsDf(spark, evsPA),
      "auction" -> NexmarkData.auctionsDf(spark, evsPA))
  }

  test("Q8 Spark reference matches DuckDB") {
    Oracle.assertEquivalent(SparkRefs.q8(spark, evsPA), SparkRefs.q8Sql,
      "person" -> NexmarkData.personsDf(spark, evsPA),
      "auction" -> NexmarkData.auctionsDf(spark, evsPA))
  }

  test("Q12 Spark reference matches DuckDB") {
    Oracle.assertEquivalent(SparkRefs.q12(spark, evsB), SparkRefs.q12Sql,
      "bid" -> NexmarkData.bidsDf(spark, evsB))
  }

  test("Q1 collection reference matches the Spark reference") {
    val fromDf = SparkRefs.q1(spark, evsB).collect()
      .map(r => Q1Out(r.getLong(0), r.getLong(1), r.getDouble(2), r.getLong(3)))
      .groupBy(identity[Any]).view.mapValues(_.size.toLong).toMap
    assert(fromDf == SparkRefs.q1Expected(evsB))
  }

  test("Q3 collection reference matches the Spark reference") {
    val fromDf = SparkRefs.q3(spark, evsPA).collect()
      .map(r => Q3Out(r.getString(0), r.getString(1), r.getString(2), r.getLong(3)))
      .groupBy(identity[Any]).view.mapValues(_.size.toLong).toMap
    assert(fromDf == SparkRefs.q3Expected(evsPA))
  }

  test("Q8 collection reference matches the Spark reference") {
    val fromDf = SparkRefs.q8(spark, evsPA).collect()
      .map(r => Q8Out(r.getLong(0), r.getString(1), r.getLong(2)))
      .groupBy(identity[Any]).view.mapValues(_.size.toLong).toMap
    assert(fromDf == SparkRefs.q8Expected(evsPA))
  }

  test("Q12 collection reference matches the Spark reference") {
    val fromDf = SparkRefs.q12(spark, evsB).collect()
      .map(r => ((r.getLong(0), r.getLong(1)): Any) -> r.getLong(2)).toMap
    assert(fromDf == SparkRefs.q12Expected(evsB))
  }

  // --- simulator vs reference, under each protocol with a failure -------

  for (proto <- Seq("COOR", "UNC", "CIC")) {
    test(s"simulator Q1 equals the reference after failure+recovery ($proto)") {
      val (rt, res) = SimTestKit.run(Q1, proto, 3, 400.0,
        horizonMicros = cfg.durationMicros, failAt = Some(5_000_000L))
      assert(res.unconsumed == 0)
      assert(Q1.sinkDigest(rt) == SparkRefs.q1Expected(evsB))
    }

    test(s"simulator Q3 equals the reference after failure+recovery ($proto)") {
      val (rt, res) = SimTestKit.run(Q3, proto, 3, 400.0,
        horizonMicros = cfg.durationMicros, failAt = Some(5_000_000L))
      assert(res.unconsumed == 0)
      assert(Q3.sinkDigest(rt) == SparkRefs.q3Expected(evsPA))
    }

    test(s"simulator Q8 equals the reference after failure+recovery ($proto)") {
      val q = Q8(slackMicros = 3_600_000_000L)
      val (rt, res) = SimTestKit.run(q, proto, 3, 400.0,
        horizonMicros = cfg.durationMicros, failAt = Some(5_000_000L))
      assert(res.unconsumed == 0)
      assert(q.sinkDigest(rt) == SparkRefs.q8Expected(evsPA))
    }

    test(s"simulator Q12 equals the reference after failure+recovery ($proto)") {
      val q = Q12(slackMicros = 3_600_000_000L)
      val (rt, res) = SimTestKit.run(q, proto, 3, 400.0,
        horizonMicros = cfg.durationMicros, failAt = Some(5_000_000L))
      assert(res.unconsumed == 0)
      assert(q.sinkDigest(rt) == SparkRefs.q12Expected(evsB))
    }
  }
}
