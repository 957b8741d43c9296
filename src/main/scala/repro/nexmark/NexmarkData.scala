package repro.nexmark

import org.apache.spark.sql.{DataFrame, SparkSession}

/** Spark DataFrame views of the NexMark-lite streams, in the paper's
  * schema: the input of the Spark references and the DuckDB oracle.
  * Deterministic in the generator config, so the oracle sees identical
  * input.
  */
object NexmarkData {

  def split(evs: Seq[NxEvent]): (Seq[NxPerson], Seq[NxAuction], Seq[NxBid]) = (
    evs.collect { case p: NxPerson => p },
    evs.collect { case a: NxAuction => a },
    evs.collect { case b: NxBid => b },
  )

  def personsDf(spark: SparkSession, evs: Seq[NxEvent]): DataFrame = {
    import spark.implicits._
    split(evs)._1.toDF()
  }

  def auctionsDf(spark: SparkSession, evs: Seq[NxEvent]): DataFrame = {
    import spark.implicits._
    split(evs)._2.toDF()
  }

  def bidsDf(spark: SparkSession, evs: Seq[NxEvent]): DataFrame = {
    import spark.implicits._
    split(evs)._3.toDF()
  }
}
