package repro.core

import org.apache.spark.sql.DataFrame
import java.util.concurrent.{Executors, ThreadFactory}
import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration.Duration

/** Uniform row sampling used by FEDEX-SAMPLING (§3.7 "Sampling optimization"):
  * interestingness is computed over a uniform sample of the input rows; all
  * other parts of the algorithm (partitioning, contribution) see full data.
  */
object Sampling {

  /** Uniformly sample `df` down to at most `rows` rows (deterministic in
    * `seed`). Returns `df` unchanged when it is already small enough.
    */
  def uniform(df: DataFrame, rows: Long, seed: Long = 42): DataFrame = {
    val n = df.count()
    if (n <= rows) df
    else {
      // Slight over-sampling + limit gives an exact cap without a second pass.
      val fraction = math.min(1.0, rows.toDouble / n * 1.1)
      df.sample(withReplacement = false, fraction, seed).limit(rows.toInt)
    }
  }
}

/** Per-column interestingness scores I_A(Q) (paper §3.2): KS exceptionality
  * for filter/join/union, CV diversity for group-by.
  */
object Interestingness {

  /** Score a single output attribute. Returns None when the measure does not
    * apply (diversity over a non-numeric column, an attribute with no source
    * column, the synthetic partition label).
    */
  def score(step: Step, attr: String, maxBins: Int = 1024): Option[Double] =
    scoreAgainst(step, step.inputs, step.output, attr, maxBins)

  /** As `score`, but over explicitly supplied (possibly sampled) input and
    * output dataframes. Exceptionality is the max KS over `Step.sources`. The
    * KS key space comes from `ins`, so a sampled run bucketises on the sample,
    * not on the full inputs.
    */
  def scoreAgainst(step: Step, ins: Seq[DataFrame], out: DataFrame, attr: String,
                   maxBins: Int): Option[Double] = {
    if (attr == Partition.LabelCol) return None
    step.op match {
      case _: GroupByOp =>
        if (Ks.isNumeric(out, attr)) Some(Diversity.cv(out, attr)) else None
      case _ =>
        step.sources(attr).map { case (idx, orig) =>
          Ks.statistic(ins(idx).withColumnRenamed(orig, attr), out, attr, maxBins)
        }.maxOption
    }
  }

  /** Scores for every output attribute of the step. With `sampleRows` set,
    * implements FEDEX-SAMPLING: inputs are uniformly sampled, the operation is
    * re-applied to the sample, and scores are computed on the sampled pair.
    * Columns are scored concurrently (Spark schedules the small jobs in
    * parallel on the local cluster).
    */
  def scores(step: Step, attrs: Seq[String], maxBins: Int = 1024,
             sampleRows: Option[Long] = None, seed: Long = 42): Map[String, Double] = {
    val (ins, out) = sampleRows match {
      case None => (step.inputs, step.output)
      case Some(k) =>
        val sampled = step.inputs.map(in => Sampling.uniform(in, k, seed).cache())
        val o       = step.reapply(sampled).cache()
        (sampled, o)
    }
    val res = Scoring.withPool { implicit ec =>
      val futures = attrs.map(a => Future(a -> scoreAgainst(step, ins, out, a, maxBins)))
      Await.result(Future.sequence(futures), Duration.Inf)
    }.collect { case (a, Some(s)) => a -> s }.toMap
    if (sampleRows.isDefined) { ins.foreach(_.unpersist()); out.unpersist() }
    res
  }
}

/** Bounded thread pools for concurrent Spark jobs (per-column scoring,
  * partition building, contribution pairs). Each call gets its own pool of
  * daemon threads, shut down when the call returns, so no thread outlives the
  * explain that started it and a finished program exits on its own.
  */
private[core] object Scoring {
  val Threads = 8

  def withPool[T](body: ExecutionContext => T): T = {
    val daemons = new ThreadFactory {
      private val default = Executors.defaultThreadFactory()
      def newThread(r: Runnable): Thread = { val t = default.newThread(r); t.setDaemon(true); t }
    }
    val pool = Executors.newFixedThreadPool(Threads, daemons)
    try body(ExecutionContext.fromExecutorService(pool))
    finally pool.shutdown()
  }
}
