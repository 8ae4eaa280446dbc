package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Uniform row sampling used by FEDEX-SAMPLING (§3.7 "Sampling optimization"):
  * interestingness is computed over a uniform sample of the input rows; all
  * other parts of the algorithm (partitioning, contribution) see full data.
  */
object Sampling {

  /** The default seed of the draw. */
  val Seed = 42L

  /** Uniformly sample `df` down to at most `rows` rows (deterministic in
    * `seed`). Returns `df` unchanged when it is already small enough.
    */
  def uniform(df: DataFrame, rows: Long, seed: Long = Seed): DataFrame = {
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
  import Partition.LabelCol

  /** KS key spaces by (input index, input column). */
  private[core] type KeySpaces = Map[(Int, String), Ks.KeySpace]

  /** Score a single output attribute, one Spark query per source: the
    * per-column reference behind `Contribution.exact`. Returns None when the
    * measure does not apply (diversity over a non-numeric column, an
    * attribute with no source column, the synthetic partition label).
    */
  def score(step: Step, attr: String, maxBins: Int = Ks.MaxBins): Option[Double] =
    if (attr == LabelCol) None
    else step.op match {
      case _: GroupByOp => Option.when(Ks.isNumeric(step.output, attr))(Diversity.cv(step.output, attr))
      case _ =>
        step.sources(attr).map { case (idx, orig) =>
          Ks.statistic(step.inputs(idx).withColumnRenamed(orig, attr), step.output, attr, maxBins)
        }.maxOption
    }

  /** Scores for every output attribute of the step, as `score` gives them.
    * With `sampleRows` set, implements FEDEX-SAMPLING: inputs are uniformly
    * sampled, the operation is re-applied to the sample, and scores are
    * computed on the sampled pair, with KS key spaces taken from the sample.
    * Each measure scores every column in one aggregation.
    */
  def scores(step: Step, attrs: Seq[String], maxBins: Int = Ks.MaxBins,
             sampleRows: Option[Long] = None, seed: Long = Sampling.Seed): Map[String, Double] =
    scores(step, attrs, maxBins, sampleRows, seed, keySpaces(step, step.inputs, attrs, maxBins, Seq.empty))

  /** `scores`, reading the full inputs' key spaces from `fullKeys` when it
    * scores the full data. Exceptionality is the `full` of
    * `Contribution.exceptionality` over one frame whose labels are all null,
    * so a column's I and its contributions come from one counting query.
    */
  private[core] def scores(step: Step, attrs: Seq[String], maxBins: Int, sampleRows: Option[Long],
                           seed: Long, fullKeys: => KeySpaces): Map[String, Double] = {
    val sampled = sampleRows.map(k => step.inputs.map(Sampling.uniform(_, k, seed)))
    // Only frames this call drew are cached and unpersisted: an input within
    // the cap comes back as the caller's own frame.
    val drawn = sampled.toSeq.flatMap(_.zip(step.inputs).collect { case (s, in) if s ne in => s })
    val ins   = if (drawn.isEmpty) step.inputs else sampled.get
    val cols  = attrs.distinct.filterNot(_ == LabelCol)
    drawn.foreach(_.cache())
    try step.op match {
      case _: GroupByOp =>
        val out = if (drawn.isEmpty) step.output else step.reapply(ins)
        Diversity.cvs(out, cols.filter(Ks.isNumeric(out, _)))
      case _ =>
        val keys = if (drawn.isEmpty) fullKeys else keySpaces(step, ins, cols, maxBins, Seq.empty)
        val unlabeled = ins.head.withColumn(LabelCol, lit(null).cast("string"))
        Contribution.exceptionality(Step(ins, step.op), cols, Seq(unlabeled), 0, keys)
          .map { case (a, _, r) => a -> r.full }.toMap
    } finally drawn.foreach(_.unpersist())
  }

  /** The input columns whose KS key spaces scoring `attrs` reads, by input:
    * the sources of every attribute (none for group-by).
    */
  private def keyColumns(step: Step, attrs: Seq[String]): Map[Int, Seq[String]] =
    attrs.filterNot(_ == LabelCol).flatMap(step.sources).distinct.groupMap(_._1)(_._2)

  /** The key space of every column `keyColumns` names, read from `ins`, one
    * `Ks.keySpaces` per input; `known` holds the inputs' profiles, if any.
    */
  private[core] def keySpaces(step: Step, ins: Seq[DataFrame], attrs: Seq[String], maxBins: Int,
                              known: Seq[Partition.Profile]): KeySpaces =
    keyColumns(step, attrs).flatMap { case (i, cols) =>
      Ks.keySpaces(ins(i), cols, maxBins, known.lift(i).getOrElse(Map.empty)).map { case (c, k) => (i, c) -> k }
    }
}
