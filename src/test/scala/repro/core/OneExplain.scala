package repro.core

import org.apache.spark.sql.SparkSession

/** Runs one explain on a small frame, stops Spark and returns from `main`
  * without `System.exit`: the JVM ends only if no explain thread outlives it.
  */
object OneExplain {
  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder().master("local[2]").appName("one-explain")
      .config("spark.ui.enabled", value = false)
      .config("spark.driver.host", "127.0.0.1")
      .getOrCreate()
    import spark.implicits._
    val df  = (1 to 200).map(i => (i % 7, s"g${i % 3}", i * 1.5)).toDF("a", "b", "v")
    val res = Fedex.explain(Step(Seq(df), FilterOp("v > 100")), FedexConfig(nSets = Seq(5), topKColumns = 2))
    println(s"skyline=${res.skyline.size}")
    spark.stop()
  }
}
